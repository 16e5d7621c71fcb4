// NEON kernel table (aarch64, 2 doubles per vector).
//
// The batched transform and the Burg lattice use the generic lane
// templates; spread4 and the fixed-point walks reuse the scalar
// reference implementations -- batching is where the lane win is on
// this target.
#include "qpsa/simd/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "qpsa/simd/kernels_generic.inl"

namespace qpsa::simd {
namespace {

struct vn {
    float64x2_t v;
    static constexpr std::size_t width = 2;
    static vn load(const real* p) { return {vld1q_f64(p)}; }
    void store(real* p) const { vst1q_f64(p, v); }
    static vn broadcast(real x) { return {vdupq_n_f64(x)}; }
    vn operator+(vn o) const { return {vaddq_f64(v, o.v)}; }
    vn operator-(vn o) const { return {vsubq_f64(v, o.v)}; }
    vn operator*(vn o) const { return {vmulq_f64(v, o.v)}; }
    vn operator/(vn o) const { return {vdivq_f64(v, o.v)}; }
    vn neg() const { return {vnegq_f64(v)}; }
    static void load_lanes(const cplx* const* p, std::size_t i, vn& re,
                           vn& im) {
        const auto* a = reinterpret_cast<const double*>(p[0] + i);
        const auto* b = reinterpret_cast<const double*>(p[1] + i);
        const float64x2_t va = vld1q_f64(a);  // [re0, im0]
        const float64x2_t vb = vld1q_f64(b);  // [re1, im1]
        re = {vzip1q_f64(va, vb)};  // [re0, re1]
        im = {vzip2q_f64(va, vb)};  // [im0, im1]
    }
    static void store_lanes(vn re, vn im, cplx* const* p, std::size_t i) {
        vst1q_f64(reinterpret_cast<double*>(p[0] + i), vzip1q_f64(re.v, im.v));
        vst1q_f64(reinterpret_cast<double*>(p[1] + i), vzip2q_f64(re.v, im.v));
    }
    static vn lt(vn a, vn b) {
        return {vreinterpretq_f64_u64(vcltq_f64(a.v, b.v))};
    }
    static vn select(vn m, vn a, vn b) {
        return {vbslq_f64(vreinterpretq_u64_f64(m.v), a.v, b.v)};
    }
};

}  // namespace

namespace detail {

const kernel_table* neon_table() noexcept {
    static const kernel_table t = [] {
        kernel_table k = *scalar_table();
        k.which = isa::neon;
        k.lanes = 2;
        k.sr_batched = generic::sr_batched<vn>;
        k.burg_lattice = generic::burg_lattice<vn>;
        return k;
    }();
    return &t;
}

}  // namespace detail
}  // namespace qpsa::simd

#else  // not aarch64

namespace qpsa::simd::detail {
const kernel_table* neon_table() noexcept { return nullptr; }
}  // namespace qpsa::simd::detail

#endif
