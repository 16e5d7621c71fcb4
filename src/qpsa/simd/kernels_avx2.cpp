// AVX2 kernel table (4 doubles per vector): the lane templates
// instantiated on v4, the spread4 weights, and the guarded fixed-point
// products and conversions on 256-bit integer lanes.
// Compiled with -mavx2 for this TU only (see CMakeLists); isa.cpp gates dispatch on cpuid so the code
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

// Width-4 vector for the generic lane templates.
struct v4 {
    __m256d v;
    static constexpr std::size_t width = 4;
    static v4 load(const real* p) { return {_mm256_loadu_pd(p)}; }
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

// Guarded narrow products (see fixed_wavelet_fft.hpp): every plane value
// and every table component but an exact +U = 2^F fits the narrow lane,
// and +U's rounded product is the identity.
//
// Q15, 16 x int16: _mm256_mulhrs_epi16 computes ((a b >> 14) + 1) >> 1,
// which is (a b + 2^14) >> 15 for every pair but (-2^15)^2, which the
// guard excludes.
template <>
inline void fixed::mul_lanes<v4, std::int16_t, std::int32_t, 15, 16, false>(
    std::int32_t w, const std::int16_t* __restrict v,
    std::int16_t* __restrict out) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    const __m256i r =
        w == std::int32_t{1} << 15
            ? x
            : _mm256_mulhrs_epi16(_mm256_set1_epi16(static_cast<short>(w)), x);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), r);
}

// Q31, 8 x int32: exact 64-bit products of the even lanes and of the odd
// lanes shifted down (_mm256_mul_epi32 reads each 64-bit lane's low half,
// sign-extended), plus 2^30.  Bits 31..62 of each sum are the rounded
// product: a logical right shift by 31 brings them to an even lane's low
// half, a left shift by 1 to an odd lane's high half, and a blend merges
// the two.
template <>
inline void fixed::mul_lanes<v4, std::int32_t, std::int64_t, 31, 8, false>(
    std::int64_t w, const std::int32_t* __restrict v,
    std::int32_t* __restrict out) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    __m256i r = x;
    if (w != std::int64_t{1} << 31) {
        const __m256i wv = _mm256_set1_epi32(static_cast<int>(w));
        const __m256i half = _mm256_set1_epi64x(std::int64_t{1} << 30);
        const __m256i even = _mm256_add_epi64(_mm256_mul_epi32(wv, x), half);
        const __m256i odd = _mm256_add_epi64(
            _mm256_mul_epi32(wv, _mm256_srli_epi64(x, 32)), half);
        r = _mm256_blend_epi32(_mm256_srli_epi64(even, 31),
                               _mm256_slli_epi64(odd, 1), 0xAA);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), r);
}

// Conversions of the adapter passes, in registers.  A rounded input value
// truncates exactly through int32 (out-of-range lanes fail the guard and
// may store anything); int16 lanes take the saturating pack, exact inside
// the guard.
template <>
inline void fixed::store_raw<v4, std::int16_t>(v4 r, std::int16_t* p) {
    const __m128i t = _mm256_cvttpd_epi32(r.v);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packs_epi32(t, t));
}

template <>
inline void fixed::store_raw<v4, std::int32_t>(v4 r, std::int32_t* p) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(r.v));
}

template <>
inline v4 fixed::load_raw<v4, std::int32_t>(const std::int32_t* p) {
    return {_mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
}

// Lane l's elements i and i + 1 are one 256-bit store: unpack re/im per
// 128-bit half, then pair the halves of the two elements.
template <>
inline void fixed::store_pair<v4>(v4 re0, v4 im0, v4 re1, v4 im1,
                                  cplx* const* p, std::size_t i) {
    const __m256d lo0 = _mm256_unpacklo_pd(re0.v, im0.v);  // [c0 | c2] of i
    const __m256d hi0 = _mm256_unpackhi_pd(re0.v, im0.v);  // [c1 | c3] of i
    const __m256d lo1 = _mm256_unpacklo_pd(re1.v, im1.v);
    const __m256d hi1 = _mm256_unpackhi_pd(re1.v, im1.v);
    const auto at = [&](std::size_t l) {
        return reinterpret_cast<double*>(p[l] + i);
    };
    _mm256_storeu_pd(at(0), _mm256_permute2f128_pd(lo0, lo1, 0x20));
    _mm256_storeu_pd(at(1), _mm256_permute2f128_pd(hi0, hi1, 0x20));
    _mm256_storeu_pd(at(2), _mm256_permute2f128_pd(lo0, lo1, 0x31));
    _mm256_storeu_pd(at(3), _mm256_permute2f128_pd(hi0, hi1, 0x31));
}

// int64 to double, rounded once as the scalar conversion rounds: the high
// halves convert exactly through int32 and scale by 2^32 exactly, the low
// halves convert exactly as 2^52 + lo - 2^52, and the one rounding is the
// final add of the two exact parts.
template <>
inline v4 fixed::load_raw<v4, std::int64_t>(const std::int64_t* p) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m128i hi = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0)));
    const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFFFFFF)),
            _mm256_castpd_si256(two52))),
        two52);
    return {_mm256_add_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(hi), _mm256_set1_pd(4294967296.0)),
        lo)};
}

namespace detail {

const kernel_table* avx2_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k;
        k.which = isa::avx2;
        k.lanes = 4;
        k.sr_batched = generic::sr_batched<v4>;
        k.spread4 = spread4_avx2;
        k.burg_lattice = generic::burg_lattice<v4>;
        fixed::fill_fixed_kernels<v4, 16, 8>(k);
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
