// SSE2 kernel table (x86-64 baseline, 2 doubles per vector): the lane
// templates instantiated on v2, plus the spread4 weights.
//
// Bit-identity notes that apply to every kernel here and in the AVX2 TU:
//   * negation is a sign-bit XOR, never 0 - x (the two differ for +/-0.0);
//   * a - b is used wherever the scalar code subtracts, and a + (-b)
//     wherever it adds a negated term -- IEEE makes these identical, so
//     either form may be picked for lane convenience;
//   * no FMA: mul and add stay separate instructions.
#include "qpsa/simd/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cstddef>

#include "qpsa/simd/kernels_fixed.inl"
#include "qpsa/simd/kernels_generic.inl"

namespace qpsa::simd {
namespace {

void spread4_sse2(real y, real* mesh, std::size_t n, std::ptrdiff_t i0,
                  real u) {
    const real up1 = u + 1.0;
    const real um1 = u - 1.0;
    const real um2 = u - 2.0;
    const real m12 = um1 * um2;
    const real p01 = up1 * u;
    constexpr real sixth = 1.0 / 6.0;
    const real ym = y * sixth;
    const real yh = y * 0.5;
    // Weights as two lane-wise triple products, each lane the scalar
    // expression left-to-right: w = [-ym*u*m12, yh*up1*m12, -yh*p01*um2,
    // ym*p01*um1].
    const __m128d w01 = _mm_mul_pd(
        _mm_mul_pd(_mm_set_pd(yh, -ym), _mm_set_pd(up1, u)),
        _mm_set1_pd(m12));
    const __m128d w23 = _mm_mul_pd(
        _mm_mul_pd(_mm_set_pd(ym, -yh), _mm_set1_pd(p01)),
        _mm_set_pd(um1, um2));
    double w[4];
    _mm_storeu_pd(w, w01);
    _mm_storeu_pd(w + 2, w23);
    const auto sn = static_cast<std::ptrdiff_t>(n);
    const auto wrap = [sn](std::ptrdiff_t i) {
        if (i < 0) i += sn;
        if (i >= sn) i -= sn;
        return static_cast<std::size_t>(i);
    };
    mesh[wrap(i0 - 1)] += w[0];
    mesh[wrap(i0)] += w[1];
    mesh[wrap(i0 + 1)] += w[2];
    mesh[wrap(i0 + 2)] += w[3];
}

// Width-2 vector for the generic lane templates.
struct v2 {
    __m128d v;
    static constexpr std::size_t width = 2;
    static v2 load(const real* p) { return {_mm_loadu_pd(p)}; }
    void store(real* p) const { _mm_storeu_pd(p, v); }
    static v2 broadcast(real x) { return {_mm_set1_pd(x)}; }
    v2 operator+(v2 o) const { return {_mm_add_pd(v, o.v)}; }
    v2 operator-(v2 o) const { return {_mm_sub_pd(v, o.v)}; }
    v2 operator*(v2 o) const { return {_mm_mul_pd(v, o.v)}; }
    v2 operator/(v2 o) const { return {_mm_div_pd(v, o.v)}; }
    v2 neg() const { return {_mm_xor_pd(v, _mm_set1_pd(-0.0))}; }
    static void load_lanes(const cplx* const* p, std::size_t i, v2& re,
                           v2& im) {
        const __m128d a = _mm_loadu_pd(reinterpret_cast<const double*>(p[0] + i));
        const __m128d b = _mm_loadu_pd(reinterpret_cast<const double*>(p[1] + i));
        re = {_mm_unpacklo_pd(a, b)};  // [re0, re1]
        im = {_mm_unpackhi_pd(a, b)};  // [im0, im1]
    }
    static void store_lanes(v2 re, v2 im, cplx* const* p, std::size_t i) {
        _mm_storeu_pd(reinterpret_cast<double*>(p[0] + i),
                      _mm_unpacklo_pd(re.v, im.v));
        _mm_storeu_pd(reinterpret_cast<double*>(p[1] + i),
                      _mm_unpackhi_pd(re.v, im.v));
    }
    static v2 lt(v2 a, v2 b) { return {_mm_cmplt_pd(a.v, b.v)}; }
    static v2 select(v2 m, v2 a, v2 b) {
        return {_mm_or_pd(_mm_and_pd(m.v, a.v), _mm_andnot_pd(m.v, b.v))};
    }
    static v2 abs(v2 a) { return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)}; }
    static v2 max(v2 x, v2 acc) { return {_mm_max_pd(x.v, acc.v)}; }
    static v2 trunc32(v2 a) {
        return {_mm_cvtepi32_pd(_mm_cvttpd_epi32(a.v))};
    }
};

}  // namespace

namespace detail {

const kernel_table* sse2_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k;
        k.which = isa::sse2;
        k.lanes = 2;
        k.sr_batched = generic::sr_batched<v2>;
        k.spread4 = spread4_sse2;
        k.burg_lattice = generic::burg_lattice<v2>;
        fixed::fill_fixed_kernels<v2, 8, 4>(k);
        return k;
    }();
    return &t;
}

}  // namespace detail
}  // namespace qpsa::simd

#else  // not x86-64

namespace qpsa::simd::detail {
const kernel_table* sse2_table() noexcept { return nullptr; }
}  // namespace qpsa::simd::detail

#endif
