// Frozen reference for the split-radix walks: the scratch-chained scalar
// recursion the library ran before its walks went in place (header-only;
// the library no longer has this walk).  Every level transforms its
// children into a 2n scratch chain and combines from there into `out`,
// with the scalar reference combine kernel inlined.  Tests compare the
// scalar forward() and forward_batched() under every ISA against it bit
// for bit: a drift in the in-place walks shows here even when the scalar
// and batched walks drift together.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::dsp {

class fft_scratch_oracle {
public:
    explicit fft_scratch_oracle(std::size_t n) : n_(n), wtab_(n) {
        QPSA_EXPECTS(is_pow2(n) && n >= 2);
        for (std::size_t k = 0; k < n; ++k) {
            const real ang =
                -two_pi * static_cast<real>(k) / static_cast<real>(n);
            wtab_[k] = cplx{std::cos(ang), std::sin(ang)};
        }
    }

    std::vector<cplx> forward_copy(std::span<const cplx> in) const {
        QPSA_EXPECTS(in.size() == n_);
        std::vector<cplx> out(n_);
        std::vector<cplx> scratch(2 * n_);
        recurse(in.data(), 1, out.data(), n_, scratch.data());
        return out;
    }

private:
    void recurse(const cplx* x, std::size_t stride, cplx* out, std::size_t n,
                 cplx* scratch) const {
        if (n == 1) {
            out[0] = x[0];
            return;
        }
        if (n == 2) {
            out[0] = x[0] + x[stride];
            out[1] = x[0] - x[stride];
            return;
        }
        const std::size_t q = n / 4;
        const std::size_t h = n / 2;
        cplx* const e = scratch;
        cplx* const o1 = scratch + h;
        cplx* const o3 = scratch + h + q;
        cplx* const child = scratch + n;
        recurse(x, 2 * stride, e, h, child);
        recurse(x + stride, 4 * stride, o1, q, child);
        recurse(x + 3 * stride, 4 * stride, o3, q, child);

        const std::size_t tstep = n_ / n;
        for (std::size_t k = 0; k < q; ++k) {
            cplx t1;
            cplx t3;
            if (k == 0) {
                t1 = o1[0];
                t3 = o3[0];
            } else if (8 * k == n) {
                const cplx z1 = o1[k];
                t1 = cplx{inv_sqrt2 * (z1.real() + z1.imag()),
                          inv_sqrt2 * (z1.imag() - z1.real())};
                const cplx z3 = o3[k];
                t3 = cplx{inv_sqrt2 * (z3.imag() - z3.real()),
                          inv_sqrt2 * (-z3.real() - z3.imag())};
            } else {
                t1 = wtab_[k * tstep] * o1[k];
                t3 = wtab_[3 * k * tstep] * o3[k];
            }
            const cplx s = t1 + t3;
            const cplx d = t1 - t3;
            const cplx jd{d.imag(), -d.real()};
            out[k] = e[k] + s;
            out[k + h] = e[k] - s;
            out[k + q] = e[k + q] + jd;
            out[k + 3 * q] = e[k + q] - jd;
        }
    }

    std::size_t n_;
    std::vector<cplx> wtab_;
};

}  // namespace qpsa::dsp
