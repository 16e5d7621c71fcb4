// Pruning configuration and statistics for the quality-scalable
// wavelet-based FFT (paper Sections III and V).
//
// Two pruning sites exist:
//   stage 1 (DWT): drop the highpass/detail band -- statically (decided at
//     design time from the expectation of the band magnitude over a
//     training corpus) or dynamically (decided per transform by comparing
//     the live mean |d| against a threshold);
//   stage 2 (combine): prune diagonal twiddle factors by magnitude.  The
//     paper's Set1/Set2/Set3 prune the smallest 20/40/60 % of factors.
//     In dynamic mode, additional run-time comparisons skip terms whose
//     live sub-spectrum sample is small, trading comparison overhead for
//     finer-grained (lower-distortion) approximation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::wfft {

enum class prune_mode {
    none,     ///< exact transform
    fixed,    ///< static pruning decided at design time
    dynamic,  ///< run-time thresholding (extra comparisons)
};

/// The paper's named approximation sets for stage 2.
enum class twiddle_set {
    none,  ///< 0 % of factors pruned
    set1,  ///< 20 %
    set2,  ///< 40 %
    set3,  ///< 60 %
};

/// Fraction of factors pruned by a named set.
constexpr double set_fraction(twiddle_set s) {
    switch (s) {
        case twiddle_set::none:
            return 0.0;
        case twiddle_set::set1:
            return 0.20;
        case twiddle_set::set2:
            return 0.40;
        case twiddle_set::set3:
            return 0.60;
    }
    return 0.0;
}

const char* set_name(twiddle_set s);

struct prune_config {
    prune_mode mode = prune_mode::none;

    /// Stage 1: number of leading levels of the approximation chain whose
    /// highpass band is dropped (paper uses 1).  0 keeps the band.
    unsigned band_drop_levels = 0;

    /// Stage 2: fraction of diagonal factors pruned by magnitude quantile.
    double twiddle_fraction = 0.0;

    // -- dynamic-mode knobs (ignored unless mode == dynamic) --------------
    /// Decide the band drop at run time by comparing mean L1 |d| with
    /// band_threshold (instead of always dropping).
    bool dynamic_band_decision = false;
    real band_threshold = 0.0;

    /// Run-time product threshold: a combine term is skipped when
    /// |factor| * L1(|data|) falls below this value -- a per-sample
    /// significance test that is strictly finer-grained than the static
    /// factor-magnitude sets.
    real data_threshold = 0.0;

    /// In dynamic mode, the magnitude-based factor pruning is kept at this
    /// (typically smaller) fraction; run-time data skips provide the rest
    /// of the savings at lower distortion.
    double dynamic_factor_fraction = 0.0;

    bool operator==(const prune_config&) const = default;

    static prune_config exact() { return {}; }

    /// Paper's static configuration: band drop + Set{1,2,3}.
    static prune_config static_mode(twiddle_set s, unsigned band_levels = 1);

    /// Paper's dynamic configuration; thresholds come from calibration.
    static prune_config dynamic_mode(twiddle_set s, real data_thr, real band_thr,
                                     unsigned band_levels = 1);
};

/// Per-execution bookkeeping: what was pruned, what did it cost.
struct exec_stats {
    counting::op_counts ops;
    std::uint64_t terms_total = 0;           ///< combine terms considered
    std::uint64_t terms_pruned_factor = 0;   ///< skipped by factor magnitude
    std::uint64_t terms_pruned_data = 0;     ///< skipped by run-time data check
    std::uint64_t terms_structural_zero = 0; ///< exact-zero factors
    bool band_dropped = false;

    /// Fold another execution's bookkeeping into this one: counts add,
    /// band_dropped ORs.
    exec_stats& operator+=(const exec_stats& o) noexcept {
        ops += o.ops;
        terms_total += o.terms_total;
        terms_pruned_factor += o.terms_pruned_factor;
        terms_pruned_data += o.terms_pruned_data;
        terms_structural_zero += o.terms_structural_zero;
        band_dropped = band_dropped || o.band_dropped;
        return *this;
    }

    double pruned_fraction() const {
        return terms_total == 0
                   ? 0.0
                   : static_cast<double>(terms_pruned_factor + terms_pruned_data +
                                         terms_structural_zero) /
                         static_cast<double>(terms_total);
    }
};

/// Magnitude threshold that prunes `fraction` of the given factor
/// magnitudes (a quantile; fraction in [0, 1]).
real magnitude_threshold(std::span<const real> magnitudes, double fraction);

}  // namespace qpsa::wfft
