// Scalar kernel table: the bit-identity reference.  Every entry is the
// exact loop body it replaced at the call site (operation order included),
// minus the operation counting, which callers add in closed form.
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "qpsa/simd/kernels.hpp"
#include "qpsa/simd/kernels_fixed.inl"
#include "qpsa/simd/kernels_generic.inl"

namespace qpsa::simd {
namespace {

// Width-1 "vector" so the generic lane templates double as the scalar
// reference implementations.
struct v1 {
    real v;
    static constexpr std::size_t width = 1;
    static v1 load(const real* p) { return {p[0]}; }
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

}  // namespace

namespace detail {

const kernel_table* scalar_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k;
        k.which = isa::scalar;
        k.lanes = 1;
        k.sr_batched = generic::sr_batched<v1>;
        k.spread4 = spread4_scalar;
        k.burg_lattice = generic::burg_lattice<v1>;
        fixed::fill_fixed_kernels<v1, 8, 4>(k);
        return k;
    }();
    return &t;
}

}  // namespace detail
}  // namespace qpsa::simd
