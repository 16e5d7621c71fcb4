#include "qpsa/dsp/burg.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/counting/op_counter.hpp"

namespace qpsa::dsp {

burg_model burg_fit(std::span<const real> x, std::size_t order) {
    util::arena scratch;
    return burg_fit(x, order, scratch);
}

burg_model burg_fit(std::span<const real> x, std::size_t order,
                    util::arena& scratch) {
    const std::size_t n = x.size();
    QPSA_EXPECTS(order >= 1);
    QPSA_EXPECTS(n > 2 * order);

    burg_model model;
    model.a.assign(order, 0.0);

    util::arena::frame frame(scratch);
    // Forward/backward prediction errors.
    std::span<real> f = scratch.alloc<real>(n);
    std::span<real> b = scratch.alloc<real>(n);
    std::copy(x.begin(), x.end(), f.begin());
    std::copy(x.begin(), x.end(), b.begin());
    std::span<real> a = scratch.alloc_zero<real>(order + 1);
    a[0] = 1.0;
    std::span<real> prev = scratch.alloc<real>(order);

    real e = 0.0;
    for (real v : x) e += v * v;
    e /= static_cast<real>(n);

    // The recursion's tally: per order m, 5 (n - m) + m + 2 muls,
    // 5 (n - m) + m + 1 adds and one division, attributed once below.
    counting::op_counts ops;
    for (std::size_t m = 1; m <= order; ++m) {
        // Reflection coefficient k_m = -2 sum f_i b_{i-1} / (sum f^2 + b^2).
        real num = 0.0;
        real den = 0.0;
        for (std::size_t i = m; i < n; ++i) {
            num += f[i] * b[i - 1];
            den += f[i] * f[i] + b[i - 1] * b[i - 1];
        }
        const real k = den > 0.0 ? -2.0 * num / den : 0.0;

        // Update AR coefficients: a'_j = a_j + k a_{m-j}.
        std::copy(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(m),
                  prev.begin());
        for (std::size_t j = 1; j <= m; ++j) {
            const real rev = (j == m) ? 1.0 : prev[m - j];
            a[j] = (j < m ? prev[j] : 0.0) + k * rev;
        }

        // Update prediction errors (descending i keeps b[i-1] intact).
        for (std::size_t i = n - 1; i >= m; --i) {
            const real fi = f[i];
            const real bi = b[i - 1];
            f[i] = fi + k * bi;
            b[i] = bi + k * fi;
            if (i == m) break;
        }

        e *= (1.0 - k * k);
        ops.muls += 5 * (n - m) + m + 2;
        ops.adds += 5 * (n - m) + m + 1;
        ops.divs += 1;
    }
    counting::add_to_active(ops);

    for (std::size_t j = 1; j <= order; ++j) model.a[j - 1] = a[j];
    model.noise_var = e;
    return model;
}

dsp::sampled_spectrum burg_psd(const burg_model& model, real fs_hz,
                               std::span<const real> freqs_hz) {
    dsp::sampled_spectrum s;
    s.freq_hz.assign(freqs_hz.begin(), freqs_hz.end());
    s.power.resize(freqs_hz.size());
    burg_psd(model, fs_hz, freqs_hz, s.power);
    return s;
}

void burg_psd(const burg_model& model, real fs_hz,
              std::span<const real> freqs_hz, std::span<real> power) {
    QPSA_EXPECTS(fs_hz > 0.0);
    QPSA_EXPECTS(power.size() == freqs_hz.size());
    const std::uint64_t nf = freqs_hz.size();
    const std::uint64_t order = model.order();
    for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
        const real w = two_pi * freqs_hz[i] / fs_hz;
        cplx den{1.0, 0.0};
        for (std::size_t k = 0; k < model.order(); ++k) {
            const real ang = -w * static_cast<real>(k + 1);
            den += model.a[k] * cplx{std::cos(ang), std::sin(ang)};
        }
        const real mag2 = std::max(sqr_mag(den), real{1e-15});
        power[i] = model.noise_var / (fs_hz * mag2);
    }
    // Per frequency: 2 trigs, 2 muls and 2 adds per model coefficient,
    // plus one division.
    counting::add_to_active({.adds = 2 * order * nf,
                             .muls = 2 * order * nf,
                             .divs = nf,
                             .trigs = 2 * order * nf});
}

}  // namespace qpsa::dsp
