// Fixed-point execution of the quality-scalable wavelet FFT.
//
// The double-precision engine (wavelet_fft) prices operations; this
// templated variant *computes* in Q-format fixed point, demonstrating the
// second quality axis of an embedded deployment: datapath wordlength.
// The structure mirrors the single-level factorization -- Haar DWT stage,
// two radix-2 sub-FFTs, diagonal combine with optional band drop and
// static factor pruning -- with exactly the arithmetic of fixed_point<F>
// (round-to-nearest products, saturating adds), so quantization error
// accumulates as it would on a sensor node's integer datapath.
//
// Scope: Haar basis, power-of-two sizes, forward transform.  Inputs must
// be scaled into the fixed-point range by the caller (|x| < ~0.25 keeps
// the unnormalized Haar stage and FFT growth inside Q1.F for N = 512 when
// the interstage shifts below are enabled).
//
// Raw-integer lane walk
// ---------------------
// The transform runs on raw integers (value = raw / 2^F) over
// lane-interleaved SoA planes: element e of lane l lives at [e * L + l],
// so L independent transforms advance through one schedule and the inner
// lane loops vectorize.  Integer arithmetic is exact, so every lane is
// bit-identical to a one-lane walk on any ISA.  One templated body runs in
// two modes, chosen once per lane group:
//
//   * guarded mode -- native-width arithmetic, no clamps: Q15-and-below
//     products in int32, up to Q31 in int64 (no __int128);
//   * saturating mode -- wide intermediates plus a clamp after every op,
//     i.e. exactly the fixed_point<F> operators.
//
// Guard and proof.  Write U = 2^F.  The guarded mode runs when F <= 31,
// interstage_shift is on, every twiddle/factor component is <= U with
// magnitude <= U + 1 (checked on the quantized tables at construction),
// the bound M below satisfies (1 + 1/U) M + 1.5 < U for this n, and every
// input component has |raw| < U/2 (checked per lane group).  Then no op
// saturates and no native product overflows, so both modes agree:
//
//   1. Haar: |x0 +- x1| < sqrt(2) U exactly; the halving (s + 1) >> 1
//      adds at most 1/2 per component, so outputs have magnitude
//      M0 = sqrt(2) U/2 + 1.
//   2. Butterfly on magnitudes <= M: t = w v rounds each of its two
//      product pairs by < 1 per component, so |t| < (1 + 1/U) M + sqrt(2);
//      (u +- t) / 2 plus the halving's rounding stays below
//      M (1 + 1/U) + 1.5 =: next M.  Iterating over the log2(n/2) stages
//      gives the final M, which bounds every sub-FFT value.
//   3. Every product is (component <= U) x (component <= M < U), so
//      |p| + U/2 < 2^(2F) + 2^(F-1): inside int32 for F <= 15 and int64
//      for F <= 31.  Rounded products stay below U.
//   4. Every sum (butterfly before halving, combine terms) is below
//      2 ((1 + 1/U) M + 1.5) < 2U <= 2^31 (F <= 30) or 2^32 (F = 31):
//      inside the raw type, so the saturating adds never clamp.
//
// Narrow planes.  Steps 1-3 put every Haar output, sub-FFT value, t and
// rounded product below U in magnitude, so the kernel table's guarded
// walks hold them in half the raw width: Q15 in int16, Q31 in int32
// (simd::fixed_kernels).  Three things need care there:
//   * the butterfly sums of step 4 reach 2U before halving, so the halving
//     runs as the overflow-free rounding average (a >> 1) + (b >> 1) +
//     ((a | b) & 1) = (a + b + 1) >> 1 (and a - b as the average with -b,
//     which fits since |b| < U).  Differences whose result fits (t's
//     rr - ii) may wrap on the way and still come out exact;
//   * the diagonal-combine sums of step 4 accumulate in the raw type, into
//     the wide planes the output pass reads;
//   * a table component of exactly +U (tw_re[0], one entry each of fa_re
//     and fd_re) does not fit: its rounded product (U v + U/2) >> F is v,
//     so the walk copies instead of multiplying.  -U fits, and no plane
//     value is -U, so the int16 rounding multiply's one overflowing pair
//     ((-2^15)^2) never occurs.  For the same reason the sub-FFT's
//     trivial twiddles w = 1 = (U, 0) and w = -i = (0, -U) form t = v and
//     t = (v_im, -v_re) exactly without multiplying.
// The saturating mode and this class's reference walk stay on the raw
// type.
//
// The adapter in lomb::fixed_wavelet_engine normalizes every block to peak
// 0.2, so service inputs always take the guarded mode; inputs beyond the
// guard and interstage_shift = false take the saturating mode.
//
// The walk itself lives in simd/kernels_fixed.inl.  This class runs it
// for any F in either mode (the reference path, instantiated at the
// baseline ISA); the engine adapter runs the Q15 / Q31 guarded walks and
// its conversion passes through the dispatched kernel table instead,
// compiled per ISA, bit-identical to this path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qpsa/fixedpoint/fixed_point.hpp"
#include "qpsa/simd/kernels_fixed.inl"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"
#include "qpsa/wfft/prune.hpp"
#include "qpsa/wfft/twiddle_tables.hpp"

namespace qpsa::lomb {
template <unsigned FracBits>
class fixed_wavelet_engine;  // lomb/fixed_engine.hpp
}  // namespace qpsa::lomb

namespace qpsa::wfft {

/// Test access to fixed_wavelet_fft's lane walk (defined by the tests).
struct fixed_wavelet_fft_test_peer;

namespace detail {
/// Instantiation tag of the reference walk.  Only baseline-ISA TUs include
/// this header; the kernel TUs instantiate with their own local types.
struct reference_walk {};
}  // namespace detail

template <unsigned FracBits>
class fixed_wavelet_fft {
public:
    using scalar = fp::fixed_point<FracBits>;
    using fcplx = fp::basic_complex<scalar>;

    struct config {
        std::size_t n = 512;
        bool band_drop = false;
        double twiddle_fraction = 0.0;  ///< static factor pruning
        /// Divide by 2 after every butterfly stage (block-floating style)
        /// so the transform never saturates; the output is then the DFT
        /// scaled by 1/N, which cancels in power *ratios*.
        bool interstage_shift = true;
    };

    explicit fixed_wavelet_fft(config cfg) : cfg_(cfg) {
        QPSA_EXPECTS(is_pow2(cfg_.n) && cfg_.n >= 8);
        build_tables();
    }

    const config& get_config() const noexcept { return cfg_; }

    /// Combine terms evaluated per forward(): 2 (band drop) or 4 diagonal
    /// factors per output pair, n/2 pairs.
    std::size_t combine_terms() const noexcept { return combine_terms_; }

    /// Of those, how many are skipped by the static factor pruning (the
    /// quantile threshold folded into the tables at construction).
    std::size_t pruned_terms() const noexcept { return pruned_terms_; }

    /// Forward transform of one input (the lane walk with L = 1); in/out
    /// sized n, subband scratch drawn from `scratch`.  Output scale is 1/N
    /// relative to the mathematical DFT when interstage_shift is on.
    void forward(std::span<const fcplx> in, std::span<fcplx> out,
                 util::arena& scratch) const {
        const std::size_t n = cfg_.n;
        QPSA_EXPECTS(in.size() == n);
        QPSA_EXPECTS(out.size() == n);
        util::arena::frame frame(scratch);
        const std::span<raw_type> re = scratch.template alloc<raw_type>(n);
        const std::span<raw_type> im = scratch.template alloc<raw_type>(n);
        for (std::size_t i = 0; i < n; ++i) {
            re[i] = in[i].re.raw();
            im[i] = in[i].im.raw();
        }
        forward_lanes<1>(re.data(), im.data(), re.data(), im.data(), scratch);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = {scalar::from_raw(re[i]), scalar::from_raw(im[i])};
    }

private:
    // The engine adapter converts and interleaves its own lanes.
    template <unsigned>
    friend class lomb::fixed_wavelet_engine;
    friend struct fixed_wavelet_fft_test_peer;

    using raw_type = typename scalar::raw_type;
    using ref = detail::reference_walk;
    static constexpr raw_type k_half = raw_type{1} << (FracBits - 1);

    /// fixed_point<F>(v).raw() without the libm call (see
    /// simd::fixed::to_raw).
    static raw_type to_raw(double v) noexcept {
        return simd::fixed::to_raw<ref, raw_type, FracBits>(v);
    }

    /// The tables as the lane walk reads them.
    simd::fixed_plan<raw_type> plan() const noexcept {
        return {cfg_.n,         cfg_.band_drop,  cfg_.interstage_shift,
                tw_re_.data(),  tw_im_.data(),   bitrev_.data(),
                fa_re_.data(),  fa_im_.data(),   fb_re_.data(),
                fb_im_.data(),  fc_re_.data(),   fc_im_.data(),
                fd_re_.data(),  fd_im_.data()};
    }

    /// Plane scratch of an L-lane walk.
    std::size_t walk_scratch(std::size_t lanes) const noexcept {
        return (cfg_.band_drop ? 2 : 4) * (cfg_.n / 2) * lanes;
    }

    /// Forward transform of L lane-interleaved inputs: element e of lane l
    /// at [e * L + l] in each n * L plane.  The outputs may alias the
    /// inputs.  Lane l is bit-identical to a one-lane walk of lane l's
    /// input.
    template <std::size_t L>
    void forward_lanes(const raw_type* xre, const raw_type* xim,
                       raw_type* yre, raw_type* yim,
                       util::arena& scratch) const {
        util::arena::frame frame(scratch);
        raw_type* planes =
            scratch.template alloc_aligned<raw_type>(walk_scratch(L)).data();
        const simd::fixed_plan<raw_type> p = plan();
        if (guarded<L>(xre, xim))
            simd::fixed::walk<ref, raw_type, raw_type, FracBits, L, false>(
                p, xre, xim, yre, yim, planes);
        else
            simd::fixed::walk<ref, raw_type, raw_type, FracBits, L, true>(
                p, xre, xim, yre, yim, planes);
    }

    /// The per-group guard of the proof: the tables and n admit the
    /// guarded mode and every input component satisfies |raw| < U/2.
    template <std::size_t L>
    bool guarded(const raw_type* xre, const raw_type* xim) const {
        if (!fast_ok_) return false;
        bool ok = true;
        for (std::size_t i = 0; i < cfg_.n * L; ++i)
            ok &= (xre[i] > -k_half) & (xre[i] < k_half) &
                  (xim[i] > -k_half) & (xim[i] < k_half);
        return ok;
    }

    /// Whether the tables and n admit the guarded mode at all.
    bool guard_ok() const noexcept { return fast_ok_; }

    void build_tables() {
        const std::size_t half = cfg_.n / 2;
        // Double-precision reference tables, folded Haar scaling.  The
        // reference derivation costs two direct length-n DFTs, so it comes
        // from the process-wide memo (shared with every wavelet_fft of the
        // same shape) instead of being rebuilt per engine.
        const std::shared_ptr<const twiddle_tables> shared =
            shared_twiddle_tables(wavelet::basis::haar, cfg_.n, true);
        const twiddle_tables& ref = *shared;
        const std::vector<real> mags =
            factor_magnitudes(ref, !cfg_.band_drop);
        const real thr = magnitude_threshold(mags, cfg_.twiddle_fraction);

        // Quantized tables, and the table half of the guard: every
        // component <= U and every magnitude <= U + 1.
        const double u = static_cast<double>(scalar::one_raw);
        bool tables_ok = true;
        const auto quantize = [&](cplx v, raw_type& re, raw_type& im) {
            re = to_raw(v.real());
            im = to_raw(v.imag());
            const auto r = static_cast<double>(re);
            const auto i = static_cast<double>(im);
            tables_ok = tables_ok && std::abs(r) <= u && std::abs(i) <= u &&
                        r * r + i * i <= (u + 1.0) * (u + 1.0);
        };
        std::size_t pruned = 0;
        const auto convert = [&](const std::vector<cplx>& src,
                                 std::vector<raw_type>& re,
                                 std::vector<raw_type>& im, bool live) {
            re.assign(half, 0);
            im.assign(half, 0);
            for (std::size_t i = 0; i < half; ++i) {
                if (std::abs(src[i]) <= std::max(thr, real{1e-14})) {
                    if (live) ++pruned;
                    continue;
                }
                quantize(src[i], re[i], im[i]);
            }
        };
        convert(ref.a, fa_re_, fa_im_, true);
        convert(ref.b, fb_re_, fb_im_, !cfg_.band_drop);
        convert(ref.c, fc_re_, fc_im_, true);
        convert(ref.d, fd_re_, fd_im_, !cfg_.band_drop);
        combine_terms_ = (cfg_.band_drop ? 2 : 4) * half;
        pruned_terms_ = pruned;

        // Sub-FFT twiddles and bit-reversal for size n/2.
        const std::size_t m = half;
        tw_re_.resize(m / 2);
        tw_im_.resize(m / 2);
        for (std::size_t k = 0; k < m / 2; ++k) {
            const real ang = -two_pi * static_cast<real>(k) / static_cast<real>(m);
            quantize(cplx{std::cos(ang), std::sin(ang)}, tw_re_[k], tw_im_[k]);
        }
        bitrev_.resize(m);
        const unsigned bits = log2_exact(m);
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t r = 0;
            std::size_t v = i;
            for (unsigned b = 0; b < bits; ++b) {
                r = (r << 1) | (v & 1);
                v >>= 1;
            }
            bitrev_[i] = r;
        }

        // The n half of the guard: iterate the proof's magnitude bound.
        double bound = std::sqrt(2.0) * u / 2.0 + 1.0;
        for (std::size_t s = 1; s < m; s <<= 1)
            bound = bound * (1.0 + 1.0 / u) + 1.5;
        fast_ok_ = FracBits <= 31 && cfg_.interstage_shift && tables_ok &&
                   (1.0 + 1.0 / u) * bound + 1.5 < u;
    }

    config cfg_;
    std::vector<raw_type> fa_re_, fa_im_, fb_re_, fb_im_;
    std::vector<raw_type> fc_re_, fc_im_, fd_re_, fd_im_;
    std::vector<raw_type> tw_re_, tw_im_;
    std::vector<std::size_t> bitrev_;
    std::size_t combine_terms_ = 0;
    std::size_t pruned_terms_ = 0;
    bool fast_ok_ = false;
};

}  // namespace qpsa::wfft
