// Scalar kernel table: the bit-identity reference.  Every entry is the
// exact loop body it replaced at the call site (operation order included),
// minus the operation counting, which callers add in closed form.
#include <cstddef>
#include <cstdint>

#include "qpsa/simd/kernels.hpp"
#include "qpsa/simd/kernels_fixed.inl"
#include "qpsa/simd/kernels_generic.inl"

namespace qpsa::simd {
namespace {

// Width-1 "vector" so the generic batched/lifting templates double as the
// scalar reference implementations.
struct v1 {
    real v;
    static constexpr std::size_t width = 1;
    static v1 load(const real* p) { return {p[0]}; }
    static v1 load_even(const real* p) { return {p[0]}; }
    static v1 load_odd(const real* p) { return {p[1]}; }
    void store(real* p) const { p[0] = v; }
    static v1 broadcast(real x) { return {x}; }
    v1 operator+(v1 o) const { return {v + o.v}; }
    v1 operator-(v1 o) const { return {v - o.v}; }
    v1 operator*(v1 o) const { return {v * o.v}; }
    v1 operator/(v1 o) const { return {v / o.v}; }
    v1 neg() const { return {-v}; }
    static void load_lanes(const cplx* const* p, std::size_t i, v1& re,
                           v1& im) {
        re = {p[0][i].real()};
        im = {p[0][i].imag()};
    }
    static void store_lanes(v1 re, v1 im, cplx* const* p, std::size_t i) {
        p[0][i] = cplx{re.v, im.v};
    }
    static v1 lt(v1 a, v1 b) { return {a.v < b.v ? 1.0 : 0.0}; }
    static v1 select(v1 m, v1 a, v1 b) { return m.v != 0.0 ? a : b; }
    static v1 abs(v1 a) { return {std::abs(a.v)}; }
    static v1 max(v1 x, v1 acc) { return {x.v > acc.v ? x.v : acc.v}; }
    /// cvttpd's int32 truncation: out of range or NaN reads INT32_MIN.
    static v1 trunc32(v1 a) {
        return {a.v > -2147483649.0 && a.v < 2147483648.0
                    ? static_cast<real>(static_cast<std::int32_t>(a.v))
                    : -2147483648.0};
    }
};

void sr_combine_scalar(cplx* x, std::size_t n, const cplx* wtab,
                       std::size_t tstep) {
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

void haar_stage_real_scalar(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    for (std::size_t k = 0; k < half; ++k) {
        a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
        d[k] = cplx{x[2 * k].real() - x[2 * k + 1].real(), 0.0};
    }
}

void haar_stage_cplx_scalar(const cplx* x, cplx* a, cplx* d, std::size_t half) {
    for (std::size_t k = 0; k < half; ++k) {
        a[k] = x[2 * k] + x[2 * k + 1];
        d[k] = x[2 * k] - x[2 * k + 1];
    }
}

void haar_lowpass_real_scalar(const cplx* x, cplx* a, std::size_t half) {
    for (std::size_t k = 0; k < half; ++k)
        a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
}

void haar_lowpass_cplx_scalar(const cplx* x, cplx* a, std::size_t half) {
    for (std::size_t k = 0; k < half; ++k) a[k] = x[2 * k] + x[2 * k + 1];
}

void lifting_db2_scalar(const real* x, real* s1, real* d1, real* out_a,
                        real* out_d, std::size_t half) {
    generic::lifting_db2<v1>(x, s1, d1, out_a, out_d, half);
}

void spread4_scalar(real y, real* mesh, std::size_t n, std::ptrdiff_t i0,
                    real u) {
    const real up1 = u + 1.0;
    const real um1 = u - 1.0;
    const real um2 = u - 2.0;
    const real m12 = um1 * um2;
    const real p01 = up1 * u;
    constexpr real sixth = 1.0 / 6.0;
    const real ym = y * sixth;
    const real yh = y * 0.5;
    const auto sn = static_cast<std::ptrdiff_t>(n);
    const auto wrap = [sn](std::ptrdiff_t i) {
        if (i < 0) i += sn;
        if (i >= sn) i -= sn;
        return static_cast<std::size_t>(i);
    };
    mesh[wrap(i0 - 1)] += -ym * u * m12;
    mesh[wrap(i0)] += yh * up1 * m12;
    mesh[wrap(i0 + 1)] += -yh * p01 * um2;
    mesh[wrap(i0 + 2)] += ym * p01 * um1;
}

void pack_real_pair_scalar(const real* a, const real* b, cplx* out,
                           std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = cplx{a[i], b[i]};
}

void widen_real_scalar(const real* a, cplx* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = cplx{a[i], 0.0};
}

void power_norm_scalar(const cplx* spec, real* out, real norm, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) out[k] = sqr_mag(spec[k]) * norm;
}

}  // namespace

namespace detail {

const kernel_table* scalar_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k;
        k.which = isa::scalar;
        k.lanes = 1;
        k.sr_combine = sr_combine_scalar;
        k.sr_batched = generic::sr_batched<v1>;
        k.haar_stage_real = haar_stage_real_scalar;
        k.haar_stage_cplx = haar_stage_cplx_scalar;
        k.haar_lowpass_real = haar_lowpass_real_scalar;
        k.haar_lowpass_cplx = haar_lowpass_cplx_scalar;
        k.lifting_db2 = lifting_db2_scalar;
        k.spread4 = spread4_scalar;
        k.pack_real_pair = pack_real_pair_scalar;
        k.widen_real = widen_real_scalar;
        k.power_norm = power_norm_scalar;
        k.burg_lattice = generic::burg_lattice<v1>;
        fixed::fill_fixed_kernels<v1>(k);
        return k;
    }();
    return &t;
}

}  // namespace detail
}  // namespace qpsa::simd
