// Batched whole-window estimates: a round of windows through
// fast_lomb_batched (one fft_engine::estimate_batched call) must equal
// the same windows analyzed one fast_lomb call at a time -- ok flags,
// spectra, every breakdown tally and the engine's exec_stats -- for Burg,
// resampled, Welch and direct Lomb, at every compiled lane width, with
// ragged windows and contract failures mid-round, hop-aligned Welch and
// resampled rounds included.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/simd/kernels.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace ql = qpsa::lomb;
namespace qp = qpsa::physio;
namespace qsimd = qpsa::simd;

namespace {

struct window {
    std::vector<real> t;
    std::vector<real> x;
};

/// Beats of `rec` in [w0, w0 + span).
window cut(const qp::rr_record& rec, real w0, real span) {
    window w;
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        const real t = rec.beat_time_s[i];
        if (t >= w0 && t < w0 + span) {
            w.t.push_back(t);
            w.x.push_back(rec.rr_s[i]);
        }
    }
    return w;
}

const qp::rr_record& record(int which) {
    static const qp::rr_record a =
        qp::record_for(qp::make_patient(qp::cohort::sinus_arrhythmia, 3), 900.0);
    static const qp::rr_record b =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 5), 900.0);
    return which == 0 ? a : b;
}

/// Ragged windows (different spans and beat counts, so the lanes of one
/// round run different series lengths), with a zero-variance window at
/// index 3 (fails its moments), two beats at index 6 (passes its moments,
/// too short for the estimate) and a short valid window at index 9 (a
/// lower clamped Burg order than its round).
std::vector<window> window_pool() {
    std::vector<window> pool;
    for (int i = 0; i < 12; ++i)
        pool.push_back(cut(record(i % 2), 30.0 * i, 95.0 + 2.5 * i));
    pool[3].x.assign(pool[3].t.size(), 0.75);  // exact mean
    pool[6] = {{200.0, 200.9}, {0.8, 0.9}};
    pool[9] = cut(record(1), 400.0, 6.0);
    return pool;
}

void expect_same_counts(const ql::lomb_breakdown& a, const ql::lomb_breakdown& b,
                        const std::string& what) {
    EXPECT_EQ(a.moments, b.moments) << what;
    EXPECT_EQ(a.extirpolation, b.extirpolation) << what;
    EXPECT_EQ(a.fft, b.fft) << what;
    EXPECT_EQ(a.combine, b.combine) << what;
    EXPECT_EQ(a.fft_stats.ops, b.fft_stats.ops) << what;
    EXPECT_EQ(a.fft_stats.terms_total, b.fft_stats.terms_total) << what;
    EXPECT_EQ(a.fft_stats.terms_pruned_factor, b.fft_stats.terms_pruned_factor)
        << what;
    EXPECT_EQ(a.fft_stats.band_dropped, b.fft_stats.band_dropped) << what;
}

bool same_bits(const std::vector<real>& a, const std::vector<real>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0);
}

void expect_same_result(const ql::lomb_result& a, const ql::lomb_result& b,
                        const std::string& what) {
    EXPECT_TRUE(same_bits(a.spectrum.freq_hz, b.spectrum.freq_hz)) << what;
    EXPECT_TRUE(same_bits(a.spectrum.power, b.spectrum.power)) << what;
    EXPECT_EQ(a.n_samples, b.n_samples) << what;
    EXPECT_EQ(a.mesh_span, b.mesh_span) << what;
}

/// One window through the single-window path: ok flag, result, tallies.
struct single {
    bool ok = false;
    ql::lomb_result res;
    ql::lomb_breakdown bd;
};

single run_single(const qcore::psa_system& sys, const window& w,
                  ql::workspace& ws, const ql::hop_ctx* ctx = nullptr) {
    single s;
    try {
        sys.analyze_window(w.t, w.x, ws, s.res, &s.bd, ctx);
        s.ok = true;
    } catch (const qpsa::contract_error&) {
        s.ok = false;
    }
    return s;
}

const std::vector<qcore::psa_config>& whole_window_configs() {
    static const std::vector<qcore::psa_config> cfgs = {
        qcore::psa_config::burg_ar(), qcore::psa_config::resampled(),
        qcore::psa_config::welch(), qcore::psa_config::welch(4.0, 30.0),
        qcore::psa_config::direct_lomb()};
    return cfgs;
}

/// Restores the dispatched ISA after a test walks every compiled one.
struct isa_restore {
    qsimd::isa saved = qsimd::active_isa();
    ~isa_restore() { qsimd::set_active_isa(saved); }
};

}  // namespace

TEST(EstimateBatched, RoundsMatchSingleWindowCalls) {
    const std::vector<window> pool = window_pool();
    isa_restore restore;
    for (const qsimd::isa which : qsimd::available_isas()) {
        ASSERT_TRUE(qsimd::set_active_isa(which));
        for (const qcore::psa_config& cfg : whole_window_configs()) {
            const qcore::psa_system sys(cfg);
            ASSERT_TRUE(sys.engine().whole_window());
            ql::workspace ws(512);
            ql::workspace ws_single(512);
            for (std::size_t count = 1; count <= 9; ++count) {
                for (const std::size_t first : {std::size_t{0}, std::size_t{2}}) {
                    std::vector<ql::lomb_result> res(count);
                    std::vector<ql::lomb_breakdown> bd(count);
                    std::vector<ql::window_job> jobs;
                    for (std::size_t i = 0; i < count; ++i) {
                        const window& w = pool[(first + i) % pool.size()];
                        jobs.push_back({w.t, w.x, &res[i], &bd[i]});
                    }
                    sys.analyze_window_batched(jobs, ws);
                    for (std::size_t i = 0; i < count; ++i) {
                        const std::size_t k = (first + i) % pool.size();
                        const std::string what =
                            std::string(qsimd::isa_name(which)) + " " +
                            sys.engine().name() + " round " +
                            std::to_string(count) + " window " +
                            std::to_string(k);
                        const single s = run_single(sys, pool[k], ws_single);
                        ASSERT_EQ(jobs[i].ok, s.ok) << what;
                        expect_same_counts(bd[i], s.bd, what);
                        expect_same_result(res[i], s.res, what);
                    }
                }
            }
        }
    }
}

TEST(EstimateBatched, DegenerateWindowsFailOnlyThemselves) {
    const std::vector<window> pool = window_pool();
    for (const qcore::psa_config& cfg : whole_window_configs()) {
        const qcore::psa_system sys(cfg);
        ql::workspace ws(512);
        std::vector<ql::lomb_result> res(8);
        std::vector<ql::lomb_breakdown> bd(8);
        std::vector<ql::window_job> jobs;
        for (std::size_t i = 0; i < 8; ++i)
            jobs.push_back({pool[i].t, pool[i].x, &res[i], &bd[i]});
        sys.analyze_window_batched(jobs, ws);
        // Window 3 has zero variance.  Window 6 resamples to 4 points:
        // too few for a periodogram, enough for an AR(1) fit, and direct
        // Lomb needs no resampling.
        const std::string name = sys.engine().name();
        const bool periodogram =
            name.rfind("resampled", 0) == 0 || name.rfind("welch", 0) == 0;
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(jobs[i].ok, i != 3 && (i != 6 || !periodogram))
                << name << " " << i;
    }
}

TEST(EstimateBatched, HopAlignedRoundsMatchSingleCalls) {
    isa_restore restore;
    for (const qsimd::isa which : qsimd::available_isas()) {
        ASSERT_TRUE(qsimd::set_active_isa(which));
        for (qcore::psa_config cfg :
             {qcore::psa_config::resampled(), qcore::psa_config::welch(4.0, 30.0)}) {
            cfg.lomb.span_override = 120.0;
            cfg.lomb.hop_aligned = true;
            const qcore::psa_system sys(cfg);
            ql::workspace ws(512);
            ql::workspace ws_single(512);
            // Two sessions per round; the reference runs the same windows
            // one call at a time.
            for (std::int64_t m = 0; m < 10; ++m) {
                const real w0 = 60.0 * static_cast<real>(m);
                window w[2] = {cut(record(0), w0, 120.0), cut(record(1), w0, 120.0)};
                const ql::hop_ctx ctx{m, 60.0, w0, 120.0};
                std::vector<ql::lomb_result> res(2);
                std::vector<ql::lomb_breakdown> bd(2);
                std::vector<ql::window_job> jobs;
                for (int s = 0; s < 2; ++s)
                    jobs.push_back({w[s].t, w[s].x, &res[s], &bd[s], &ctx});
                sys.analyze_window_batched(jobs, ws);
                for (int s = 0; s < 2; ++s) {
                    const std::string what = std::string(qsimd::isa_name(which)) +
                                             " " + sys.engine().name() +
                                             " window " + std::to_string(m);
                    const single ref = run_single(sys, w[s], ws_single, &ctx);
                    ASSERT_TRUE(jobs[s].ok) << what;
                    ASSERT_TRUE(ref.ok) << what;
                    expect_same_counts(bd[s], ref.bd, what);
                    expect_same_result(res[s], ref.res, what);
                }
            }
        }
    }
}
