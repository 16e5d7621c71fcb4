// Deterministic random-number utilities.  Every stochastic component in
// qpsa (patient bank, IPFM jitter, test fuzzers) draws from an explicitly
// seeded engine so experiments are exactly reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::util {

/// splitmix64 mix function (Vigna): a single bijective scramble step,
/// used to derive statistically independent seeds from a base seed.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed for logical stream `stream` of a base seed.  Concurrent sessions
/// each seed their own engine from (base, session index), so results are
/// reproducible regardless of thread scheduling or session creation
/// order -- no shared engine whose draw order depends on timing.
constexpr std::uint64_t derive_stream_seed(std::uint64_t base,
                                           std::uint64_t stream) noexcept {
    return splitmix64(base ^ splitmix64(stream + 0x632be59bd9b4e019ULL));
}

/// Thin wrapper over a 64-bit Mersenne engine with convenience draws.
class rng {
public:
    explicit rng(std::uint64_t seed) : engine_(seed) {}

    /// Independent child generator for logical stream `stream`, derived
    /// from this rng's original seed -- NOT from its current state, so
    /// forks are order-independent.
    static rng for_stream(std::uint64_t base, std::uint64_t stream) {
        return rng(derive_stream_seed(base, stream));
    }

    /// Uniform in [lo, hi).
    real uniform(real lo, real hi) {
        std::uniform_real_distribution<real> d(lo, hi);
        return d(engine_);
    }

    /// Standard normal scaled to sigma.  The draw is taken at unit sigma
    /// (a normal_distribution with sigma = 0 violates its precondition),
    /// so gaussian(0) returns 0 and advances the engine like any sigma.
    real gaussian(real sigma) {
        std::normal_distribution<real> d(0.0, 1.0);
        return sigma * d(engine_);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        std::uniform_int_distribution<std::int64_t> d(lo, hi);
        return d(engine_);
    }

    std::mt19937_64& engine() noexcept { return engine_; }

private:
    std::mt19937_64 engine_;
};

/// Vector of N(0, sigma) samples.
std::vector<real> gaussian_vector(rng& r, std::size_t n, real sigma);

/// Vector of uniform samples in [lo, hi).
std::vector<real> uniform_vector(rng& r, std::size_t n, real lo, real hi);

/// 1/f-like (pink-ish) noise generated by summing a few octave-spaced
/// sinusoids with random phase; used for the VLF drift of synthetic HRV.
std::vector<real> drift_noise(rng& r, std::size_t n, real dt, real f_lo, real f_hi,
                              real sigma);

}  // namespace qpsa::util
