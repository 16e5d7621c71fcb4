// Process-wide cache of immutable FFT engines keyed by configuration.
//
// Engine construction is the expensive part of standing up a session:
// split-radix twiddle ramps are O(n) but the wavelet engine's diagonal
// factor tables come from two direct length-n DFTs (O(n^2)), plus the
// quantile scan for the pruning threshold.  A fleet running the paper's
// standard 512-mesh configurations needs only a handful of distinct
// engines regardless of patient count, so the cache turns session
// creation (and QDES mode switches) into a hash lookup.
//
// Engines are stateless across forward() calls; the cache hands out
// shared_ptr<const fft_engine> that any number of threads may use
// concurrently.  Beside each engine it keeps the weight transforms
// (lomb::weight_transform) of the Fast-Lomb options that use it, so a
// fleet of staircase sessions shares one per configuration as well.
#pragma once

#include <memory>

#include "qpsa/core/engine_spec.hpp"
#include "qpsa/core/psa_system.hpp"
#include "qpsa/util/memo.hpp"

namespace qpsa::service {

using plan_cache_stats = util::memo_counters;

class plan_cache {
public:
    /// Shared engine for a configuration (built on first use).
    std::shared_ptr<const lomb::fft_engine> engine_for(
        const core::psa_config& cfg);

    /// Convenience: a psa_system wrapping the cached engine and weight
    /// transform.  The system object itself is cheap; all heavy state
    /// lives in the shared engine and weight transform.
    std::shared_ptr<const core::psa_system> system_for(
        const core::psa_config& cfg);

    plan_cache_stats stats() const { return memo_.stats(); }
    void clear() {
        memo_.clear();
        weights_.clear();
    }

private:
    /// A weight transform is a function of the engine and the Fast-Lomb
    /// options.
    struct weights_key {
        core::engine_key engine;
        lomb::fast_lomb_options lomb;
        bool operator==(const weights_key&) const = default;
    };
    struct weights_key_hash {
        std::size_t operator()(const weights_key& k) const {
            return core::engine_key_hash{}(k.engine);
        }
    };

    util::shared_memo<core::engine_key, lomb::fft_engine,
                      core::engine_key_hash>
        memo_;
    util::shared_memo<weights_key, lomb::weight_transform, weights_key_hash>
        weights_;
};

/// The process-wide instance every session_manager uses by default.
plan_cache& global_plan_cache();

}  // namespace qpsa::service
