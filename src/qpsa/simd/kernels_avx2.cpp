// AVX2 kernel table (4 doubles per vector).  Compiled with -mavx2 for this
// TU only (see CMakeLists); isa.cpp gates dispatch on cpuid so the code
// here never executes on CPUs without AVX2.  Same bit-identity rules as
// the SSE2 TU: sign-bit XOR negation, no FMA, lane-parallel only.
#include "qpsa/simd/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "qpsa/simd/kernels_fixed.inl"
#include "qpsa/simd/kernels_generic.inl"

namespace qpsa::simd {
namespace {

// Negate the imaginary lanes of [re0, im0, re1, im1] (set_pd order is
// e3..e0).
inline __m256d neg_im() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }
// Negate the real lanes.
inline __m256d neg_re() { return _mm256_set_pd(0.0, -0.0, 0.0, -0.0); }

// Swap re/im within each complex value: [im0, re0, im1, re1].
inline __m256d swap_reim(__m256d v) { return _mm256_permute_pd(v, 0b0101); }

// Two complex values per register.  w_r/w_i hold each twiddle's re/im
// duplicated across its value's two lanes.  addsub gives lane0 a subtract
// and lane1 an add -- exactly (w.re*re - w.im*im, w.re*im + w.im*re).
inline __m256d cmul2(__m256d w_r, __m256d w_i, __m256d o) {
    return _mm256_addsub_pd(_mm256_mul_pd(w_r, o),
                            _mm256_mul_pd(w_i, swap_reim(o)));
}

// In place (see kernel_table::sr_combine): every bin, scalar or vector,
// loads its four slots before it stores any of them.
void sr_combine_avx2(cplx* x, std::size_t n, const cplx* wtab,
                     std::size_t tstep) {
    const std::size_t q = n / 4;
    const std::size_t h = n / 2;
    const cplx* const o1 = x + h;
    const cplx* const o3 = x + h + q;
    auto* const pout = reinterpret_cast<double*>(x);
    const double* const pe = pout;
    const double* const po1 = pout + 2 * h;
    const double* const po3 = pout + 2 * (h + q);

    // k == 0 and 8k == n are multiplication-free specials; run them scalar
    // and vectorize pairs of generic twiddle bins in the runs between.
    const auto scalar_k = [&](std::size_t k) {
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
        const cplx ek = x[k];
        const cplx eq = x[k + q];
        const cplx s = t1 + t3;
        const cplx d = t1 - t3;
        const cplx jd{d.imag(), -d.real()};
        x[k] = ek + s;
        x[k + h] = ek - s;
        x[k + q] = eq + jd;
        x[k + 3 * q] = eq - jd;
    };

    const auto vector_run = [&](std::size_t lo, std::size_t hi) {
        std::size_t k = lo;
        for (; k + 2 <= hi; k += 2) {
            const cplx wa1 = wtab[k * tstep];
            const cplx wb1 = wtab[(k + 1) * tstep];
            const cplx wa3 = wtab[3 * k * tstep];
            const cplx wb3 = wtab[3 * (k + 1) * tstep];
            const __m256d tw1 =
                _mm256_set_pd(wb1.imag(), wb1.real(), wa1.imag(), wa1.real());
            const __m256d tw3 =
                _mm256_set_pd(wb3.imag(), wb3.real(), wa3.imag(), wa3.real());
            const __m256d t1 =
                cmul2(_mm256_movedup_pd(tw1), _mm256_permute_pd(tw1, 0b1111),
                      _mm256_loadu_pd(po1 + 2 * k));
            const __m256d t3 =
                cmul2(_mm256_movedup_pd(tw3), _mm256_permute_pd(tw3, 0b1111),
                      _mm256_loadu_pd(po3 + 2 * k));
            const __m256d s = _mm256_add_pd(t1, t3);
            const __m256d d = _mm256_sub_pd(t1, t3);
            const __m256d jd = _mm256_xor_pd(swap_reim(d), neg_im());
            const __m256d ek = _mm256_loadu_pd(pe + 2 * k);
            const __m256d eq = _mm256_loadu_pd(pe + 2 * (k + q));
            _mm256_storeu_pd(pout + 2 * k, _mm256_add_pd(ek, s));
            _mm256_storeu_pd(pout + 2 * (k + h), _mm256_sub_pd(ek, s));
            _mm256_storeu_pd(pout + 2 * (k + q), _mm256_add_pd(eq, jd));
            _mm256_storeu_pd(pout + 2 * (k + 3 * q), _mm256_sub_pd(eq, jd));
        }
        for (; k < hi; ++k) scalar_k(k);
    };

    scalar_k(0);
    if (n >= 8) {
        const std::size_t n8 = n / 8;
        vector_run(1, n8);
        scalar_k(n8);
        vector_run(n8 + 1, q);
    } else {
        vector_run(1, q);
    }
}

// Deinterleave two AoS complex loads into [even values | odd values].
inline __m256d evens_of(__m256d v0, __m256d v1) {
    return _mm256_permute2f128_pd(v0, v1, 0x20);
}
inline __m256d odds_of(__m256d v0, __m256d v1) {
    return _mm256_permute2f128_pd(v0, v1, 0x31);
}
// Zero the imaginary lanes (blend with 0.0 in lanes 1 and 3).
inline __m256d zero_im(__m256d v) {
    return _mm256_blend_pd(v, _mm256_setzero_pd(), 0b1010);
}

void haar_stage_real_avx2(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    auto* const pd = reinterpret_cast<double*>(d);
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
        const __m256d v0 = _mm256_loadu_pd(px + 4 * k);
        const __m256d v1 = _mm256_loadu_pd(px + 4 * k + 4);
        const __m256d ev = evens_of(v0, v1);
        const __m256d od = odds_of(v0, v1);
        _mm256_storeu_pd(pa + 2 * k, zero_im(_mm256_add_pd(ev, od)));
        _mm256_storeu_pd(pd + 2 * k, zero_im(_mm256_sub_pd(ev, od)));
    }
    for (; k < half; ++k) {
        a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
        d[k] = cplx{x[2 * k].real() - x[2 * k + 1].real(), 0.0};
    }
}

void haar_stage_cplx_avx2(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    auto* const pd = reinterpret_cast<double*>(d);
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
        const __m256d v0 = _mm256_loadu_pd(px + 4 * k);
        const __m256d v1 = _mm256_loadu_pd(px + 4 * k + 4);
        const __m256d ev = evens_of(v0, v1);
        const __m256d od = odds_of(v0, v1);
        _mm256_storeu_pd(pa + 2 * k, _mm256_add_pd(ev, od));
        _mm256_storeu_pd(pd + 2 * k, _mm256_sub_pd(ev, od));
    }
    for (; k < half; ++k) {
        a[k] = x[2 * k] + x[2 * k + 1];
        d[k] = x[2 * k] - x[2 * k + 1];
    }
}

void haar_lowpass_real_avx2(const cplx* x, cplx* a, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
        const __m256d v0 = _mm256_loadu_pd(px + 4 * k);
        const __m256d v1 = _mm256_loadu_pd(px + 4 * k + 4);
        _mm256_storeu_pd(pa + 2 * k,
                         zero_im(_mm256_add_pd(evens_of(v0, v1), odds_of(v0, v1))));
    }
    for (; k < half; ++k)
        a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
}

void haar_lowpass_cplx_avx2(const cplx* x, cplx* a, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
        const __m256d v0 = _mm256_loadu_pd(px + 4 * k);
        const __m256d v1 = _mm256_loadu_pd(px + 4 * k + 4);
        _mm256_storeu_pd(pa + 2 * k,
                         _mm256_add_pd(evens_of(v0, v1), odds_of(v0, v1)));
    }
    for (; k < half; ++k) a[k] = x[2 * k] + x[2 * k + 1];
}

void spread4_avx2(real y, real* mesh, std::size_t n, std::ptrdiff_t i0,
                  real u) {
    const real up1 = u + 1.0;
    const real um1 = u - 1.0;
    const real um2 = u - 2.0;
    const real m12 = um1 * um2;
    const real p01 = up1 * u;
    constexpr real sixth = 1.0 / 6.0;
    const real ym = y * sixth;
    const real yh = y * 0.5;
    const __m256d w = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_set_pd(ym, -yh, yh, -ym),
                      _mm256_set_pd(p01, p01, up1, u)),
        _mm256_set_pd(um1, um2, m12, m12));
    double wv[4];
    _mm256_storeu_pd(wv, w);
    const auto sn = static_cast<std::ptrdiff_t>(n);
    const auto wrap = [sn](std::ptrdiff_t i) {
        if (i < 0) i += sn;
        if (i >= sn) i -= sn;
        return static_cast<std::size_t>(i);
    };
    mesh[wrap(i0 - 1)] += wv[0];
    mesh[wrap(i0)] += wv[1];
    mesh[wrap(i0 + 1)] += wv[2];
    mesh[wrap(i0 + 2)] += wv[3];
}

void pack_real_pair_avx2(const real* a, const real* b, cplx* out,
                         std::size_t n) {
    auto* const po = reinterpret_cast<double*>(out);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        const __m256d t0 = _mm256_unpacklo_pd(va, vb);  // [a0,b0,a2,b2]
        const __m256d t1 = _mm256_unpackhi_pd(va, vb);  // [a1,b1,a3,b3]
        _mm256_storeu_pd(po + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
        _mm256_storeu_pd(po + 2 * i + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
    }
    for (; i < n; ++i) out[i] = cplx{a[i], b[i]};
}

void widen_real_avx2(const real* a, cplx* out, std::size_t n) {
    auto* const po = reinterpret_cast<double*>(out);
    const __m256d zero = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d t0 = _mm256_unpacklo_pd(va, zero);
        const __m256d t1 = _mm256_unpackhi_pd(va, zero);
        _mm256_storeu_pd(po + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
        _mm256_storeu_pd(po + 2 * i + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
    }
    for (; i < n; ++i) out[i] = cplx{a[i], 0.0};
}

void power_norm_avx2(const cplx* spec, real* out, real norm, std::size_t n) {
    auto* const pz = reinterpret_cast<const double*>(spec);
    const __m256d vnorm = _mm256_set1_pd(norm);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256d za = _mm256_loadu_pd(pz + 2 * k);      // values 0,1
        const __m256d zb = _mm256_loadu_pd(pz + 2 * k + 4);  // values 2,3
        const __m256d ma = _mm256_mul_pd(za, za);
        const __m256d mb = _mm256_mul_pd(zb, zb);
        // hadd pairs within 128-bit halves: [p0, p2, p1, p3] with
        // p_i = re_i^2 + im_i^2 (the scalar operand order).
        const __m256d h = _mm256_hadd_pd(ma, mb);
        const __m256d p = _mm256_permute4x64_pd(h, _MM_SHUFFLE(3, 1, 2, 0));
        _mm256_storeu_pd(out + k, _mm256_mul_pd(p, vnorm));
    }
    for (; k < n; ++k) out[k] = sqr_mag(spec[k]) * norm;
}

// Width-4 vector for the generic batched-transform and lifting templates.
struct v4 {
    __m256d v;
    static constexpr std::size_t width = 4;
    static v4 load(const real* p) { return {_mm256_loadu_pd(p)}; }
    static v4 load_even(const real* p) {
        const __m256d a = _mm256_loadu_pd(p);
        const __m256d b = _mm256_loadu_pd(p + 4);
        const __m256d t = _mm256_unpacklo_pd(a, b);  // [p0,p4,p2,p6]
        return {_mm256_permute4x64_pd(t, _MM_SHUFFLE(3, 1, 2, 0))};
    }
    static v4 load_odd(const real* p) {
        const __m256d a = _mm256_loadu_pd(p);
        const __m256d b = _mm256_loadu_pd(p + 4);
        const __m256d t = _mm256_unpackhi_pd(a, b);  // [p1,p5,p3,p7]
        return {_mm256_permute4x64_pd(t, _MM_SHUFFLE(3, 1, 2, 0))};
    }
    void store(real* p) const { _mm256_storeu_pd(p, v); }
    static v4 broadcast(real x) { return {_mm256_set1_pd(x)}; }
    v4 operator+(v4 o) const { return {_mm256_add_pd(v, o.v)}; }
    v4 operator-(v4 o) const { return {_mm256_sub_pd(v, o.v)}; }
    v4 operator*(v4 o) const { return {_mm256_mul_pd(v, o.v)}; }
    v4 operator/(v4 o) const { return {_mm256_div_pd(v, o.v)}; }
    v4 neg() const { return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))}; }
    static void load_lanes(const cplx* const* p, std::size_t i, v4& re,
                           v4& im) {
        const auto at = [&](std::size_t l) {
            return _mm_loadu_pd(reinterpret_cast<const double*>(p[l] + i));
        };
        // [c0 | c2] and [c1 | c3], then per-128-bit-half unpacks.
        const __m256d a =
            _mm256_insertf128_pd(_mm256_castpd128_pd256(at(0)), at(2), 1);
        const __m256d b =
            _mm256_insertf128_pd(_mm256_castpd128_pd256(at(1)), at(3), 1);
        re = {_mm256_unpacklo_pd(a, b)};  // [re0, re1, re2, re3]
        im = {_mm256_unpackhi_pd(a, b)};
    }
    static void store_lanes(v4 re, v4 im, cplx* const* p, std::size_t i) {
        const __m256d lo = _mm256_unpacklo_pd(re.v, im.v);  // [c0 | c2]
        const __m256d hi = _mm256_unpackhi_pd(re.v, im.v);  // [c1 | c3]
        const auto at = [&](std::size_t l) {
            return reinterpret_cast<double*>(p[l] + i);
        };
        _mm_storeu_pd(at(0), _mm256_castpd256_pd128(lo));
        _mm_storeu_pd(at(1), _mm256_castpd256_pd128(hi));
        _mm_storeu_pd(at(2), _mm256_extractf128_pd(lo, 1));
        _mm_storeu_pd(at(3), _mm256_extractf128_pd(hi, 1));
    }
    static v4 lt(v4 a, v4 b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
    static v4 select(v4 m, v4 a, v4 b) {
        return {_mm256_blendv_pd(b.v, a.v, m.v)};
    }
    static v4 abs(v4 a) {
        return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
    }
    static v4 max(v4 x, v4 acc) { return {_mm256_max_pd(x.v, acc.v)}; }
    static v4 trunc32(v4 a) {
        return {_mm256_cvtepi32_pd(_mm256_cvttpd_epi32(a.v))};
    }
};

}  // namespace

// Guarded Q31 products.  AVX2 has no 64-bit multiply, but in guarded mode
// every plane operand fits int32 and so does every table component except
// an exact +U = 2^31, whose rounded product (U v + U/2) >> 31 is exactly v.
// The rest run as 32 x 32 -> 64 multiplies (_mm256_mul_epi32 reads each
// 64-bit lane's low half, sign-extended) and an emulated arithmetic shift:
// the same integers as the generic (int64 product + U/2) >> 31.
template <>
inline void fixed::mul_lanes<v4, std::int64_t, 31, 4, false>(
    std::int64_t w, const std::int64_t* __restrict v,
    std::int64_t* __restrict out) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    __m256i r = x;
    if (w != std::int64_t{1} << 31) {
        const __m256i p = _mm256_add_epi64(
            _mm256_mul_epi32(_mm256_set1_epi64x(w), x),
            _mm256_set1_epi64x(std::int64_t{1} << 30));
        // p >> 31 arithmetic: the logical shift, with the 31 vacated top
        // bits set where p is negative.
        const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), p);
        r = _mm256_or_si256(
            _mm256_srli_epi64(p, 31),
            _mm256_and_si256(neg, _mm256_set1_epi64x(~std::int64_t{0} << 33)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), r);
}

namespace detail {

const kernel_table* avx2_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k;
        k.which = isa::avx2;
        k.lanes = 4;
        k.sr_combine = sr_combine_avx2;
        k.sr_batched = generic::sr_batched<v4>;
        k.haar_stage_real = haar_stage_real_avx2;
        k.haar_stage_cplx = haar_stage_cplx_avx2;
        k.haar_lowpass_real = haar_lowpass_real_avx2;
        k.haar_lowpass_cplx = haar_lowpass_cplx_avx2;
        k.lifting_db2 = generic::lifting_db2<v4>;
        k.spread4 = spread4_avx2;
        k.pack_real_pair = pack_real_pair_avx2;
        k.widen_real = widen_real_avx2;
        k.power_norm = power_norm_avx2;
        k.burg_lattice = generic::burg_lattice<v4>;
        fixed::fill_fixed_kernels<v4>(k);
        return k;
    }();
    return &t;
}

}  // namespace detail
}  // namespace qpsa::simd

#else  // not x86-64

namespace qpsa::simd::detail {
const kernel_table* avx2_table() noexcept { return nullptr; }
}  // namespace qpsa::simd::detail

#endif
