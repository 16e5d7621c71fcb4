#include "qpsa/hrv/bands.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace qpsa::hrv {

band_powers compute_band_powers(const dsp::sampled_spectrum& s,
                                const band_limits& limits) {
    // dsp::band_power for ULF, LF and HF and dsp::total_power, in one walk
    // over the grid segments: each band accumulates its segments in the
    // same order with the same operations, so every sum is bit-identical
    // to the four separate integrals (contract checks included).
    QPSA_EXPECTS(s.freq_hz.size() == s.power.size());
    struct band {
        real lo;
        real hi;
        real acc;
    };
    std::array<band, 4> bands{{{0.0, limits.ulf_hi, 0.0},
                               {limits.lf_lo, limits.lf_hi, 0.0},
                               {limits.hf_lo, limits.hf_hi, 0.0},
                               {0.0, 0.0, 0.0}}};
    for (std::size_t k = 0; k < 3; ++k) QPSA_EXPECTS(bands[k].hi > bands[k].lo);
    const std::size_t n = s.size();
    if (n < 2) return {};
    bands[3] = {s.freq_hz.front(), s.freq_hz.back() + 1e-12, 0.0};
    QPSA_EXPECTS(bands[3].hi > bands[3].lo);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const real a = s.freq_hz[i];
        const real b = s.freq_hz[i + 1];
        if (b <= a) continue;  // skip degenerate grid steps
        for (band& bd : bands) {
            const real lo = std::max(a, bd.lo);
            const real hi = std::min(b, bd.hi);
            if (hi <= lo) continue;
            // Linear interpolation of power across the [a, b] segment.
            auto interp = [&](real f) {
                const real t = (f - a) / (b - a);
                return s.power[i] * (1.0 - t) + s.power[i + 1] * t;
            };
            bd.acc += 0.5 * (interp(lo) + interp(hi)) * (hi - lo);
        }
    }
    return {bands[0].acc, bands[1].acc, bands[2].acc, bands[3].acc};
}

real spectral_entropy(const dsp::sampled_spectrum& s, real f_lo, real f_hi) {
    QPSA_EXPECTS(f_hi > f_lo);
    std::vector<real> in_band;
    real total = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.freq_hz[i] < f_lo || s.freq_hz[i] >= f_hi) continue;
        if (s.power[i] <= 0.0) continue;
        in_band.push_back(s.power[i]);
        total += s.power[i];
    }
    if (in_band.size() < 2 || total <= 0.0) return 0.0;
    real h = 0.0;
    for (real p : in_band) {
        const real q = p / total;
        h -= q * std::log(q);
    }
    return h / std::log(static_cast<real>(in_band.size()));
}

}  // namespace qpsa::hrv
