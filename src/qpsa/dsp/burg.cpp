#include "qpsa/dsp/burg.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/simd/kernels.hpp"

namespace qpsa::dsp {

burg_model burg_fit(std::span<const real> x, std::size_t order) {
    util::arena scratch;
    const burg_coeffs fit = burg_fit(x, order, scratch);
    return {std::vector<real>(fit.a.begin(), fit.a.end()), fit.noise_var};
}

burg_coeffs burg_fit(std::span<const real> x, std::size_t order,
                     util::arena& scratch) {
    const std::size_t n = x.size();
    QPSA_EXPECTS(order >= 1);
    QPSA_EXPECTS(n > 2 * order);

    // The recursion is the one-lane instance of the lane-interleaved
    // lattice kernel (the scalar table's entry is the reference).
    const std::span<real> a = scratch.alloc<real>(order);
    real noise_var = 0.0;
    {
        util::arena::frame frame(scratch);
        std::span<real> work = scratch.alloc<real>(2 * n + 2 * order + 1);
        const real* xs[1] = {x.data()};
        simd::kernels_for(simd::isa::scalar)
            ->burg_lattice(xs, &n, order, work.data(), a.data(), &noise_var);
    }
    counting::add_to_active(burg_fit_tally(n, order));
    return {a, noise_var};
}

counting::op_counts burg_fit_tally(std::size_t n, std::size_t order) {
    // Per order m: 5 (n - m) + m + 2 muls, 5 (n - m) + m + 1 adds and one
    // division.
    counting::op_counts ops;
    for (std::size_t m = 1; m <= order; ++m) {
        ops.muls += 5 * (n - m) + m + 2;
        ops.adds += 5 * (n - m) + m + 1;
        ops.divs += 1;
    }
    return ops;
}

dsp::sampled_spectrum burg_psd(const burg_coeffs& model, real fs_hz,
                               std::span<const real> freqs_hz) {
    dsp::sampled_spectrum s;
    s.freq_hz.assign(freqs_hz.begin(), freqs_hz.end());
    s.power.resize(freqs_hz.size());
    burg_psd(model, fs_hz, freqs_hz, s.power);
    return s;
}

void burg_psd(const burg_coeffs& model, real fs_hz,
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
