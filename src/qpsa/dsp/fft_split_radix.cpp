#include "qpsa/dsp/fft_split_radix.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/simd/kernels.hpp"

namespace qpsa::dsp {

fft_split_radix::fft_split_radix(std::size_t n) : n_(n), wtab_(n) {
    QPSA_EXPECTS(is_pow2(n) && n >= 2);
    for (std::size_t k = 0; k < n; ++k) {
        const real ang = -two_pi * static_cast<real>(k) / static_cast<real>(n);
        wtab_[k] = cplx{std::cos(ang), std::sin(ang)};
    }
    // Memoize the per-transform operation tally with a counted dry run of
    // the recursion: counts depend only on n, so every forward attributes
    // this tally instead of counting per node.
    std::vector<cplx> buf(4 * n_);
    counting::pause_scope pause;
    counting::count_scope scope(tally_);
    recurse(buf.data(), 1, buf.data() + n_, n_, buf.data() + 2 * n_);
}

void fft_split_radix::run(const cplx* in, cplx* out, cplx* scratch) const {
    {
        counting::pause_scope pause;
        recurse(in, 1, out, n_, scratch);
    }
    counting::add_to_active(tally_);
}

void fft_split_radix::forward(std::span<const cplx> in, std::span<cplx> out) const {
    QPSA_EXPECTS(in.size() == n_);
    QPSA_EXPECTS(out.size() == n_);
    std::vector<cplx> scratch(2 * n_);
    run(in.data(), out.data(), scratch.data());
}

void fft_split_radix::forward(std::span<const cplx> in, std::span<cplx> out,
                              util::arena& scratch) const {
    QPSA_EXPECTS(in.size() == n_);
    QPSA_EXPECTS(out.size() == n_);
    // Every scratch element is written by a child recursion before the
    // parent reads it, so uninitialized arena storage is safe here.
    util::arena::frame frame(scratch);
    run(in.data(), out.data(), scratch.alloc<cplx>(2 * n_).data());
}

std::vector<cplx> fft_split_radix::forward_copy(std::span<const cplx> in) const {
    std::vector<cplx> out(n_);
    forward(in, out);
    return out;
}

void fft_split_radix::recurse(const cplx* x, std::size_t stride, cplx* out,
                              std::size_t n, cplx* scratch) const {
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

    const std::size_t q = n / 4;
    const std::size_t h = n / 2;
    cplx* const e = scratch;           // E: half-size transform of evens
    cplx* const o1 = scratch + h;      // O1: quarter-size of x[4m+1]
    cplx* const o3 = scratch + h + q;  // O3: quarter-size of x[4m+3]
    cplx* const child = scratch + n;

    recurse(x, 2 * stride, e, h, child);
    recurse(x + stride, 4 * stride, o1, q, child);
    recurse(x + 3 * stride, 4 * stride, o3, q, child);

    const std::size_t tstep = n_ / n;  // twiddle stride for this level
    // The whole combine pass (k == 0 copy, the W^(N/8) = (1-i)/sqrt(2)
    // 2-mul special at 8k == n, generic twiddle bins) runs through the
    // dispatched kernel; the tally below is the closed form of the
    // per-iteration counts the scalar loop used to record.
    simd::kernels().sr_combine(e, o1, o3, out, n, wtab_.data(), tstep);
    count_cadd(6 * q);
    if (n >= 8) {
        count_muls(4);
        count_adds(4);
    }
    count_cmul(2 * (q - 1 - (n >= 8 ? 1 : 0)));
}

void fft_split_radix::forward_batched(std::span<const cplx* const> ins,
                                      std::span<cplx* const> outs,
                                      util::arena& scratch) const {
    QPSA_EXPECTS(ins.size() == outs.size());
    // No counting in here: a lane-batched walk cannot attribute work to a
    // single transform.  Callers add op_tally() once per transform, which
    // also covers the scalar fallbacks below (the tally is exact for any
    // input).
    counting::pause_scope pause;
    const simd::kernel_table& kt = simd::kernels();
    const std::size_t w = kt.lanes;
    std::size_t i = 0;
    if (w >= 2) {
        util::arena::frame frame(scratch);
        std::span<real> xre = scratch.alloc<real>(n_ * w);
        std::span<real> xim = scratch.alloc<real>(n_ * w);
        std::span<real> ore = scratch.alloc<real>(n_ * w);
        std::span<real> oim = scratch.alloc<real>(n_ * w);
        std::span<real> sre = scratch.alloc<real>(2 * n_ * w);
        std::span<real> sim = scratch.alloc<real>(2 * n_ * w);
        QPSA_EXPECTS(w <= 8);
        while (ins.size() - i >= 2) {
            const std::size_t chunk = std::min(w, ins.size() - i);
            // Transpose AoS inputs into SoA lane planes; short chunks pad
            // by repeating lane 0 (their outputs are discarded).
            const cplx* srcs[8];
            for (std::size_t l = 0; l < w; ++l)
                srcs[l] = ins[i + (l < chunk ? l : 0)];
            kt.transpose_to_planes(srcs, xre.data(), xim.data(), n_, w);
            kt.sr_batched(xre.data(), xim.data(), ore.data(), oim.data(),
                          sre.data(), sim.data(), n_, wtab_.data());
            if (chunk == w) {
                cplx* dsts[8];
                for (std::size_t l = 0; l < w; ++l) dsts[l] = outs[i + l];
                kt.transpose_from_planes(ore.data(), oim.data(), dsts, n_, w);
            } else {
                for (std::size_t l = 0; l < chunk; ++l) {
                    cplx* dst = outs[i + l];
                    for (std::size_t e = 0; e < n_; ++e)
                        dst[e] = cplx{ore[e * w + l], oim[e * w + l]};
                }
            }
            i += chunk;
        }
    }
    for (; i < ins.size(); ++i) {
        util::arena::frame frame(scratch);
        const cplx* in = ins[i];
        if (in == outs[i]) {  // the recursion reads its input to the end
            std::span<cplx> copy = scratch.alloc<cplx>(n_);
            std::copy(in, in + n_, copy.begin());
            in = copy.data();
        }
        forward(std::span<const cplx>(in, n_), std::span<cplx>(outs[i], n_),
                scratch);
    }
}

}  // namespace qpsa::dsp
