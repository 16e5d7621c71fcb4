// SSE2 kernel table (x86-64 baseline, 2 doubles per vector).
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

// [lane1, lane0] constants for _mm_set_pd (element order is high, low).
inline __m128d neg_lo() { return _mm_set_pd(0.0, -0.0); }
inline __m128d neg_hi() { return _mm_set_pd(-0.0, 0.0); }

inline __m128d swap_lanes(__m128d v) { return _mm_shuffle_pd(v, v, 1); }

// One complex value per register: o = [re, im], twiddle pre-broadcast as
// w_r = [w.re, w.re], w_i = [w.im, w.im].  Produces the std::complex
// product (w.re*re - w.im*im, w.re*im + w.im*re) with the subtraction
// realized as add-of-negated (exact).
inline __m128d cmul1(__m128d w_r, __m128d w_i, __m128d o) {
    const __m128d p0 = _mm_mul_pd(w_r, o);
    const __m128d p1 = _mm_mul_pd(w_i, swap_lanes(o));
    return _mm_add_pd(p0, _mm_xor_pd(p1, neg_lo()));
}

// In place (see kernel_table::sr_combine): every bin loads its four slots
// before it stores any of them.
void sr_combine_sse2(cplx* x, std::size_t n, const cplx* wtab,
                     std::size_t tstep) {
    const std::size_t q = n / 4;
    const std::size_t h = n / 2;
    const __m128d c_inv_sqrt2 = _mm_set1_pd(inv_sqrt2);
    auto* const pout = reinterpret_cast<double*>(x);
    const double* const pe = pout;
    const double* const po1 = pout + 2 * h;
    const double* const po3 = pout + 2 * (h + q);
    for (std::size_t k = 0; k < q; ++k) {
        __m128d t1;
        __m128d t3;
        if (k == 0) {
            t1 = _mm_loadu_pd(po1);
            t3 = _mm_loadu_pd(po3);
        } else if (8 * k == n) {
            // t1 = inv_sqrt2 * [re+im, im-re]: re - (-im) == re + im.
            const __m128d z1 = _mm_loadu_pd(po1 + 2 * k);
            t1 = _mm_mul_pd(c_inv_sqrt2,
                            _mm_sub_pd(z1, _mm_xor_pd(swap_lanes(z1), neg_lo())));
            // t3 = inv_sqrt2 * [im-re, -re-im].
            const __m128d z3 = _mm_loadu_pd(po3 + 2 * k);
            t3 = _mm_mul_pd(c_inv_sqrt2,
                            _mm_sub_pd(_mm_xor_pd(swap_lanes(z3), neg_hi()), z3));
        } else {
            const cplx w1 = wtab[k * tstep];
            const cplx w3 = wtab[3 * k * tstep];
            t1 = cmul1(_mm_set1_pd(w1.real()), _mm_set1_pd(w1.imag()),
                       _mm_loadu_pd(po1 + 2 * k));
            t3 = cmul1(_mm_set1_pd(w3.real()), _mm_set1_pd(w3.imag()),
                       _mm_loadu_pd(po3 + 2 * k));
        }
        const __m128d s = _mm_add_pd(t1, t3);
        const __m128d d = _mm_sub_pd(t1, t3);
        const __m128d jd = _mm_xor_pd(swap_lanes(d), neg_hi());  // [im, -re]
        const __m128d ek = _mm_loadu_pd(pe + 2 * k);
        const __m128d eq = _mm_loadu_pd(pe + 2 * (k + q));
        _mm_storeu_pd(pout + 2 * k, _mm_add_pd(ek, s));
        _mm_storeu_pd(pout + 2 * (k + h), _mm_sub_pd(ek, s));
        _mm_storeu_pd(pout + 2 * (k + q), _mm_add_pd(eq, jd));
        _mm_storeu_pd(pout + 2 * (k + 3 * q), _mm_sub_pd(eq, jd));
    }
}

void haar_stage_real_sse2(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    auto* const pd = reinterpret_cast<double*>(d);
    const __m128d zero = _mm_setzero_pd();
    for (std::size_t k = 0; k < half; ++k) {
        const __m128d x0 = _mm_loadu_pd(px + 4 * k);
        const __m128d x1 = _mm_loadu_pd(px + 4 * k + 2);
        // move_sd(zero, t) = [t.lane0, 0.0]: keeps the real sum, writes an
        // exact 0.0 imaginary like the scalar loop does.
        _mm_storeu_pd(pa + 2 * k, _mm_move_sd(zero, _mm_add_pd(x0, x1)));
        _mm_storeu_pd(pd + 2 * k, _mm_move_sd(zero, _mm_sub_pd(x0, x1)));
    }
}

void haar_stage_cplx_sse2(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    auto* const pd = reinterpret_cast<double*>(d);
    for (std::size_t k = 0; k < half; ++k) {
        const __m128d x0 = _mm_loadu_pd(px + 4 * k);
        const __m128d x1 = _mm_loadu_pd(px + 4 * k + 2);
        _mm_storeu_pd(pa + 2 * k, _mm_add_pd(x0, x1));
        _mm_storeu_pd(pd + 2 * k, _mm_sub_pd(x0, x1));
    }
}

void haar_lowpass_real_sse2(const cplx* x, cplx* a, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    const __m128d zero = _mm_setzero_pd();
    for (std::size_t k = 0; k < half; ++k) {
        const __m128d x0 = _mm_loadu_pd(px + 4 * k);
        const __m128d x1 = _mm_loadu_pd(px + 4 * k + 2);
        _mm_storeu_pd(pa + 2 * k, _mm_move_sd(zero, _mm_add_pd(x0, x1)));
    }
}

void haar_lowpass_cplx_sse2(const cplx* x, cplx* a, std::size_t half) {
    auto* const px = reinterpret_cast<const double*>(x);
    auto* const pa = reinterpret_cast<double*>(a);
    for (std::size_t k = 0; k < half; ++k) {
        const __m128d x0 = _mm_loadu_pd(px + 4 * k);
        const __m128d x1 = _mm_loadu_pd(px + 4 * k + 2);
        _mm_storeu_pd(pa + 2 * k, _mm_add_pd(x0, x1));
    }
}

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

void pack_real_pair_sse2(const real* a, const real* b, cplx* out,
                         std::size_t n) {
    auto* const po = reinterpret_cast<double*>(out);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d va = _mm_loadu_pd(a + i);
        const __m128d vb = _mm_loadu_pd(b + i);
        _mm_storeu_pd(po + 2 * i, _mm_unpacklo_pd(va, vb));
        _mm_storeu_pd(po + 2 * i + 2, _mm_unpackhi_pd(va, vb));
    }
    for (; i < n; ++i) out[i] = cplx{a[i], b[i]};
}

void widen_real_sse2(const real* a, cplx* out, std::size_t n) {
    auto* const po = reinterpret_cast<double*>(out);
    const __m128d zero = _mm_setzero_pd();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d va = _mm_loadu_pd(a + i);
        _mm_storeu_pd(po + 2 * i, _mm_unpacklo_pd(va, zero));
        _mm_storeu_pd(po + 2 * i + 2, _mm_unpackhi_pd(va, zero));
    }
    for (; i < n; ++i) out[i] = cplx{a[i], 0.0};
}

void power_norm_sse2(const cplx* spec, real* out, real norm, std::size_t n) {
    auto* const pz = reinterpret_cast<const double*>(spec);
    const __m128d vnorm = _mm_set1_pd(norm);
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
        const __m128d z0 = _mm_loadu_pd(pz + 2 * k);
        const __m128d z1 = _mm_loadu_pd(pz + 2 * k + 2);
        const __m128d m0 = _mm_mul_pd(z0, z0);
        const __m128d m1 = _mm_mul_pd(z1, z1);
        // [re0^2 + im0^2, re1^2 + im1^2] -- the scalar re*re + im*im order.
        const __m128d s =
            _mm_add_pd(_mm_unpacklo_pd(m0, m1), _mm_unpackhi_pd(m0, m1));
        _mm_storeu_pd(out + k, _mm_mul_pd(s, vnorm));
    }
    for (; k < n; ++k) out[k] = sqr_mag(spec[k]) * norm;
}

// Width-2 vector for the generic batched-transform and lifting templates.
struct v2 {
    __m128d v;
    static constexpr std::size_t width = 2;
    static v2 load(const real* p) { return {_mm_loadu_pd(p)}; }
    static v2 load_even(const real* p) {
        const __m128d a = _mm_loadu_pd(p);
        const __m128d b = _mm_loadu_pd(p + 2);
        return {_mm_shuffle_pd(a, b, 0)};
    }
    static v2 load_odd(const real* p) {
        const __m128d a = _mm_loadu_pd(p);
        const __m128d b = _mm_loadu_pd(p + 2);
        return {_mm_shuffle_pd(a, b, 3)};
    }
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
        k.sr_combine = sr_combine_sse2;
        k.sr_batched = generic::sr_batched<v2>;
        k.haar_stage_real = haar_stage_real_sse2;
        k.haar_stage_cplx = haar_stage_cplx_sse2;
        k.haar_lowpass_real = haar_lowpass_real_sse2;
        k.haar_lowpass_cplx = haar_lowpass_cplx_sse2;
        k.lifting_db2 = generic::lifting_db2<v2>;
        k.spread4 = spread4_sse2;
        k.pack_real_pair = pack_real_pair_sse2;
        k.widen_real = widen_real_sse2;
        k.power_norm = power_norm_sse2;
        k.burg_lattice = generic::burg_lattice<v2>;
        fixed::fill_fixed_kernels<v2>(k);
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
