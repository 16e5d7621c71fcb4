#include "qpsa/dsp/fft_split_radix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/simd/kernels.hpp"

namespace qpsa::dsp {

namespace {

/// One in-place combine pass (all k in [0, n/4)) of the recursion: on
/// entry x holds E (the half-size even transform) in [0, n/2), O1 in
/// [n/2, 3n/4) and O3 in [3n/4, n), on exit the n-point transform.  Bin k
/// loads slots k, k+n/4, k+n/2, k+3n/4 before it stores any of them.
/// Twiddles from wtab with stride tstep; k == 0 and 8k == n are the
/// multiplication-free specials.  The lane walk (simd sr_batched) runs
/// the same operations per lane.
void sr_combine(cplx* x, std::size_t n, const cplx* wtab, std::size_t tstep) {
    const std::size_t q = n / 4;
    const std::size_t h = n / 2;
    const cplx* const o1 = x + h;
    const cplx* const o3 = x + h + q;
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
            t1 = wtab[k * tstep] * o1[k];
            t3 = wtab[3 * k * tstep] * o3[k];
        }
        // In place: E[k] and E[k+q] are loaded before any slot is stored.
        const cplx ek = x[k];
        const cplx eq = x[k + q];
        const cplx s = t1 + t3;
        const cplx d = t1 - t3;
        const cplx jd{d.imag(), -d.real()};
        x[k] = ek + s;
        x[k + h] = ek - s;
        x[k + q] = eq + jd;
        x[k + 3 * q] = eq - jd;
    }
}

}  // namespace

fft_split_radix::fft_split_radix(std::size_t n) : n_(n), wtab_(n) {
    QPSA_EXPECTS(is_pow2(n) && n >= 2);
    for (std::size_t k = 0; k < n; ++k) {
        const real ang = -two_pi * static_cast<real>(k) / static_cast<real>(n);
        wtab_[k] = cplx{std::cos(ang), std::sin(ang)};
    }
    // Memoize the per-transform operation tally with a counted dry run of
    // the recursion: counts depend only on n, so every forward attributes
    // this tally instead of counting per node.
    std::vector<cplx> buf(2 * n_);
    counting::pause_scope pause;
    counting::count_scope scope(tally_);
    recurse(buf.data(), 1, buf.data() + n_, n_);
}

void fft_split_radix::forward(std::span<const cplx> in, std::span<cplx> out) const {
    QPSA_EXPECTS(in.size() == n_);
    QPSA_EXPECTS(out.size() == n_);
    const std::less<const cplx*> before;
    QPSA_EXPECTS(!before(in.data(), out.data() + n_) ||
                 !before(out.data(), in.data() + n_));
    {
        counting::pause_scope pause;
        recurse(in.data(), 1, out.data(), n_);
    }
    counting::add_to_active(tally_);
}

std::vector<cplx> fft_split_radix::forward_copy(std::span<const cplx> in) const {
    std::vector<cplx> out(n_);
    forward(in, out);
    return out;
}

void fft_split_radix::recurse(const cplx* x, std::size_t stride, cplx* out,
                              std::size_t n) const {
    using counting::count_adds;
    using counting::count_cadd;
    using counting::count_cmul;
    using counting::count_muls;

    if (n == 1) {
        out[0] = x[0];
        return;
    }
    if (n == 2) {
        out[0] = x[0] + x[stride];
        out[1] = x[0] - x[stride];
        count_cadd(2);
        return;
    }
    // The n = 4 and n = 8 levels fused in registers: the scalar combine's
    // k == 0 and 8k == n bins on their 2- and 4-point children, with the
    // tally those levels record.
    const auto butterfly = [out](std::size_t k, std::size_t q, cplx e, cplx e2,
                                 cplx t1, cplx t3) {
        const cplx s = t1 + t3;
        const cplx d = t1 - t3;
        const cplx jd{d.imag(), -d.real()};
        out[k] = e + s;
        out[k + 2 * q] = e - s;
        out[k + q] = e2 + jd;
        out[k + 3 * q] = e2 - jd;
    };
    if (n == 4) {
        const cplx x0 = x[0];
        const cplx x2 = x[2 * stride];
        butterfly(0, 1, x0 + x2, x0 - x2, x[stride], x[3 * stride]);
        count_cadd(8);
        return;
    }
    if (n == 8) {
        cplx v[8];
        for (std::size_t i = 0; i < 8; ++i) v[i] = x[i * stride];
        const cplx e0 = v[0] + v[4];
        const cplx e1 = v[0] - v[4];
        const cplx s26 = v[2] + v[6];
        const cplx d26 = v[2] - v[6];
        const cplx jd26{d26.imag(), -d26.real()};
        const cplx z1 = v[1] - v[5];
        const cplx z3 = v[3] - v[7];
        // E = the 4-point transform of the evens: E[0], E[2] = e0 +/- s26,
        // E[1], E[3] = e1 +/- jd26.
        butterfly(0, 2, e0 + s26, e0 - s26, v[1] + v[5], v[3] + v[7]);
        butterfly(1, 2, e1 + jd26, e1 - jd26,
                  cplx{inv_sqrt2 * (z1.real() + z1.imag()),
                       inv_sqrt2 * (z1.imag() - z1.real())},
                  cplx{inv_sqrt2 * (z3.imag() - z3.real()),
                       inv_sqrt2 * (-z3.real() - z3.imag())});
        count_cadd(24);
        count_muls(4);
        count_adds(4);
        return;
    }

    const std::size_t q = n / 4;
    const std::size_t h = n / 2;
    recurse(x, 2 * stride, out, h);                       // E
    recurse(x + stride, 4 * stride, out + h, q);          // O1: x[4m+1]
    recurse(x + 3 * stride, 4 * stride, out + h + q, q);  // O3: x[4m+3]

    // The whole in-place combine pass (k == 0 copy, the W^(N/8) =
    // (1-i)/sqrt(2) 2-mul special at 8k == n, generic twiddle bins); the
    // tally below is the closed form of its per-iteration counts.
    sr_combine(out, n, wtab_.data(), n_ / n);
    count_cadd(6 * q);
    count_muls(4);
    count_adds(4);
    count_cmul(2 * (q - 2));
}

void fft_split_radix::forward_batched(std::span<const cplx* const> ins,
                                      std::span<cplx* const> outs,
                                      util::arena& scratch) const {
    QPSA_EXPECTS(ins.size() == outs.size());
    // No counting in here: a lane-batched walk cannot attribute work to a
    // single transform.  Callers add op_tally() once per transform, which
    // also covers the scalar remainder below (the tally is exact for any
    // input).
    counting::pause_scope pause;
    const simd::kernel_table& kt = simd::kernels();
    const std::size_t w = kt.lanes;
    std::size_t i = 0;
    if (w >= 2) {
        QPSA_EXPECTS(w <= 8);
        util::arena::frame frame(scratch);
        // The walk's workspace planes; every element is written by a child
        // before its level reads it, so uninitialized storage is fine.
        std::span<real> wre = scratch.alloc<real>(n_ * w);
        std::span<real> wim = scratch.alloc<real>(n_ * w);
        while (ins.size() - i >= 2) {
            // A short chunk repeats lane 0 in both arrays: the walk reads
            // every input before it writes any output, so the repeated
            // lane rewrites lane 0's output with the same values.
            const std::size_t chunk = std::min(w, ins.size() - i);
            const cplx* srcs[8];
            cplx* dsts[8];
            for (std::size_t l = 0; l < w; ++l) {
                srcs[l] = ins[i + (l < chunk ? l : 0)];
                dsts[l] = outs[i + (l < chunk ? l : 0)];
            }
            kt.sr_batched(srcs, dsts, wre.data(), wim.data(), n_, wtab_.data());
            i += chunk;
        }
    }
    for (; i < ins.size(); ++i) {
        util::arena::frame frame(scratch);
        const cplx* in = ins[i];
        if (in == outs[i]) {  // the in-place walk reads its input to the end
            std::span<cplx> copy = scratch.alloc<cplx>(n_);
            std::copy(in, in + n_, copy.begin());
            in = copy.data();
        }
        forward(std::span<const cplx>(in, n_), std::span<cplx>(outs[i], n_));
    }
}

}  // namespace qpsa::dsp
