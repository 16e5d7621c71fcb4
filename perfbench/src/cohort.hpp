// Seeded cohort generator: every patient of a workload is a cheap view of
// a small physio::record_for bank -- a seeded record choice, a rotation
// (start beat) and a start phase, plus seeded ectopic beats and short
// dropouts where a workload asks for them.  Generating the bank costs
// ~0.6 s and happens before any timing; each patient's beat stream is
// then a pure function of (bank, its stream state), so the serial
// reference regenerates exactly the beats the fleet saw.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qpsa/physio/patients.hpp"

namespace perfbench {

using qpsa::real;

struct beat {
    real t = 0.0;
    real rr = 0.0;
};

/// splitmix64: the artifact stream's hash (cheap, seedable, no state
/// beyond one word).
inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// RR series of the bank, one per synthetic source patient.
struct beat_bank {
    std::vector<std::vector<real>> rr;
};

/// The first `per_cohort` patients of each physio cohort, `record_seconds`
/// each.  Fixed across seeds: the seed only decides which patient replays
/// which record, from where, and when it starts.
std::shared_ptr<const beat_bank> make_bank(unsigned per_cohort,
                                           real record_seconds);

/// One patient's endless beat stream over a bank record: the RR series is
/// read cyclically from a rotation offset and integrated from a start
/// phase.  Artifacts: an ectopic beat arrives at 70 % of its RR and the
/// next beat carries the compensatory 30 %; a dropout silently loses the
/// next 4..15 beats (time advances, nothing is delivered).
class patient_stream {
public:
    patient_stream() = default;
    patient_stream(std::shared_ptr<const beat_bank> bank, std::size_t record,
                   std::size_t rotation, real phase_s, std::uint64_t artifact_seed,
                   real ectopic_p, real dropout_p)
        : bank_(std::move(bank)),
          rr_(&bank_->rr[record]),
          idx_(rotation % rr_->size()),
          t_(phase_s),
          state_(artifact_seed),
          ectopic_p_(ectopic_p),
          dropout_p_(dropout_p) {}

    /// Next delivered beat (strictly increasing time, positive RR).
    beat next() {
        for (;;) {
            real rr = (*rr_)[idx_] + carry_;
            carry_ = 0.0;
            idx_ = idx_ + 1 == rr_->size() ? 0 : idx_ + 1;
            if (ectopic_p_ > 0.0 && uniform() < ectopic_p_) {
                carry_ = 0.3 * rr;
                rr -= carry_;
            }
            t_ += rr;
            if (drop_left_ > 0) {
                --drop_left_;
                continue;
            }
            if (dropout_p_ > 0.0 && uniform() < dropout_p_) {
                drop_left_ = 3 + static_cast<unsigned>(splitmix64(state_) % 12);
                continue;
            }
            return {t_, rr};
        }
    }

private:
    real uniform() {
        return static_cast<real>(splitmix64(state_) >> 11) * 0x1.0p-53;
    }

    std::shared_ptr<const beat_bank> bank_;
    const std::vector<real>* rr_ = nullptr;
    std::size_t idx_ = 0;
    real t_ = 0.0;
    std::uint64_t state_ = 0;
    real ectopic_p_ = 0.0;
    real dropout_p_ = 0.0;
    real carry_ = 0.0;
    unsigned drop_left_ = 0;
};

}  // namespace perfbench
