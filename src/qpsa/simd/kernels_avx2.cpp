// AVX2 kernel table (4 doubles per vector): the lane templates
// instantiated on v4, the spread4 weights and the guarded Q31 product.
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
        k.sr_batched = generic::sr_batched<v4>;
        k.spread4 = spread4_avx2;
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
