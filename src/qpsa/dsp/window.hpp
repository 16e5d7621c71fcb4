// Taper windows for Welch-style segment averaging.
//
// The Welch-Lomb method applies a window w(t) to each RR segment before
// the Lomb periodogram.  Because RR samples are unevenly spaced, windows
// are evaluated at arbitrary normalized positions u in [0, 1] rather than
// at integer sample indices.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::dsp {

enum class window_kind {
    rectangular,
    hann,
    hamming,
    welch,     ///< parabolic, the taper of Welch's original method
    blackman,
};

/// Window value at normalized position u in [0, 1].
real window_value(window_kind kind, real u);

/// Sampled window of n points (u = i/(n-1)).
std::vector<real> make_window(window_kind kind, std::size_t n);

/// The same n-point window memoized in `mem` (one table per (kind, n)
/// for the arena's lifetime): entry i is window_value(kind, i/(n-1)),
/// bit for bit, without the per-call trig.
std::span<const real> window_table(window_kind kind, std::size_t n,
                                   util::arena& mem);

/// Mean of w(u)^2 over [0,1]; used to compensate the power lost to the
/// taper when averaging Welch segments.
real window_power_gain(window_kind kind);

/// Parse a window name ("hann", "hamming", ...); throws on unknown names.
window_kind parse_window(std::string_view name);

/// Human-readable name.
std::string_view window_name(window_kind kind);

}  // namespace qpsa::dsp
