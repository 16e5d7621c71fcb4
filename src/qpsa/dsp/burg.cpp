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

namespace {

/// The model PSD at Q frequencies starting at freqs[0], one Horner chain
/// per frequency advancing in step (independent chains, so each keeps its
/// exact operation sequence while their latencies overlap).
template <std::size_t Q>
void burg_psd_block(std::span<const real> a, real noise_var, real fs_hz,
                    const real* freqs, real* power) {
    // 1 + sum_k a_k z^k with z = e^{-iw}, by Horner from a_p down:
    // u <- z (a_k + u), starting at u = z a_p.  z (br + i bi) =
    // (c br + s bi) + i (c bi - s br) in explicit real arithmetic.
    const std::size_t p = a.size();
    real c[Q], s[Q], ur[Q], ui[Q];
    for (std::size_t q = 0; q < Q; ++q) {
        const real w = two_pi * freqs[q] / fs_hz;
        c[q] = std::cos(w);
        s[q] = std::sin(w);
        ur[q] = c[q] * a[p - 1];
        ui[q] = -(s[q] * a[p - 1]);
    }
    for (std::size_t k = p - 1; k-- > 0;) {
        for (std::size_t q = 0; q < Q; ++q) {
            const real br = a[k] + ur[q];
            ur[q] = c[q] * br + s[q] * ui[q];
            ui[q] = c[q] * ui[q] - s[q] * br;
        }
    }
    for (std::size_t q = 0; q < Q; ++q) {
        const real re = 1.0 + ur[q];
        const real mag2 = std::max(re * re + ui[q] * ui[q], real{1e-15});
        power[q] = noise_var / (fs_hz * mag2);
    }
}

}  // namespace

void burg_psd(const burg_coeffs& model, real fs_hz,
              std::span<const real> freqs_hz, std::span<real> power) {
    QPSA_EXPECTS(fs_hz > 0.0);
    QPSA_EXPECTS(model.order() >= 1);
    QPSA_EXPECTS(power.size() == freqs_hz.size());
    const std::span<const real> a = model.a;
    const std::size_t p = a.size();
    std::size_t i = 0;
    for (; i + 4 <= freqs_hz.size(); i += 4)
        burg_psd_block<4>(a, model.noise_var, fs_hz, &freqs_hz[i], &power[i]);
    for (; i < freqs_hz.size(); ++i)
        burg_psd_block<1>(a, model.noise_var, fs_hz, &freqs_hz[i], &power[i]);
    // Per frequency: w (1 mul, 1 div), one cos and one sin, z a_p (2 muls),
    // p - 1 Horner steps (4 muls, 3 adds each), the final 1 + u (1 add),
    // |D|^2 (2 muls, 1 add), its floor (1 cmp) and s2 / (fs |D|^2)
    // (1 mul, 1 div).
    const std::uint64_t nf = freqs_hz.size();
    const std::uint64_t steps = p - 1;
    counting::add_to_active({.adds = (3 * steps + 2) * nf,
                             .muls = (4 * steps + 6) * nf,
                             .divs = 2 * nf,
                             .cmps = nf,
                             .trigs = 2 * nf});
}

}  // namespace qpsa::dsp
