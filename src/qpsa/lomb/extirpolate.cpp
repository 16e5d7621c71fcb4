#include "qpsa/lomb/extirpolate.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/simd/kernels.hpp"

namespace qpsa::lomb {

namespace {
// (m-1)! for kernel orders 1..8.
constexpr std::array<real, 9> k_nfac = {0.0, 1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0,
                                        5040.0};

/// spread() without the live count: the deposit's tally accumulates into
/// `ops` for the caller to attribute once.
void spread_uncounted(real y, std::span<real> mesh, real x, int order,
                      counting::op_counts& ops) {
    const auto n = static_cast<std::ptrdiff_t>(mesh.size());
    QPSA_EXPECTS(order >= 1 && order <= 8);
    QPSA_EXPECTS(n >= order);
    QPSA_EXPECTS(x >= 0.0 && x < static_cast<real>(n));

    const real xr = std::round(x);
    if (order == 1 || std::abs(x - xr) < 1e-9) {
        // Zero-order: deposit at the nearest mesh point.
        const auto idx = static_cast<std::ptrdiff_t>(xr);
        mesh[static_cast<std::size_t>(mod_floor(idx, n))] += y;
        ops.adds += 1;
        return;
    }
    if (order == 2) {
        // Linear weights need no divisions.
        const auto i0 = static_cast<std::ptrdiff_t>(std::floor(x));
        const real frac = x - static_cast<real>(i0);
        mesh[static_cast<std::size_t>(mod_floor(i0, n))] += y * (1.0 - frac);
        mesh[static_cast<std::size_t>(mod_floor(i0 + 1, n))] += y * frac;
        ops.muls += 2;
        ops.adds += 4;
        return;
    }
    if (order == 4) {
        // Division-free cubic Lagrange weights on the uniform grid around
        // x: with u = x - i0 in [0, 1) and nodes {i0-1, i0, i0+1, i0+2},
        //   w[-1] = -u (u-1)(u-2)/6        w[0] = (u+1)(u-1)(u-2)/2
        //   w[1]  = -(u+1) u (u-2)/2       w[2] = (u+1) u (u-1)/6
        // evaluated from shared sub-products -- the form a node deployment
        // would use (and the default of the PSA pipeline).
        const auto i0 = static_cast<std::ptrdiff_t>(std::floor(x));
        const real u = x - static_cast<real>(i0);
        simd::kernels().spread4(y, mesh.data(), mesh.size(), i0, u);
        ops.muls += 12;
        ops.adds += 9;
        return;
    }

    // Unwrapped index window [ilo, ihi] around x; storage wraps circularly
    // because the FFT treats the mesh as periodic.
    const auto ilo = static_cast<std::ptrdiff_t>(
        std::floor(x - 0.5 * static_cast<real>(order) + 1.0));
    const std::ptrdiff_t ihi = ilo + order - 1;

    real fac = x - static_cast<real>(ilo);
    for (std::ptrdiff_t j = ilo + 1; j <= ihi; ++j) fac *= (x - static_cast<real>(j));
    ops.muls += static_cast<std::uint64_t>(order) - 1;
    ops.adds += static_cast<std::uint64_t>(order);

    real nden = k_nfac[static_cast<std::size_t>(order)];
    const std::size_t hi_idx = static_cast<std::size_t>(mod_floor(ihi, n));
    mesh[hi_idx] += y * fac / (nden * (x - static_cast<real>(ihi)));
    ops.muls += 2;
    ops.divs += 1;
    ops.adds += 2;
    for (std::ptrdiff_t j = ihi - 1; j >= ilo; --j) {
        nden = (nden / static_cast<real>(j + 1 - ilo)) * static_cast<real>(j - ihi);
        const std::size_t idx = static_cast<std::size_t>(mod_floor(j, n));
        mesh[idx] += y * fac / (nden * (x - static_cast<real>(j)));
        ops.muls += 3;
        ops.divs += 2;
        ops.adds += 2;
    }
}

}  // namespace

void spread(real y, std::span<real> mesh, real x, int order) {
    counting::op_counts ops;
    spread_uncounted(y, mesh, x, order, ops);
    counting::add_to_active(ops);
}

std::vector<real> extirpolate(std::span<const real> t, std::span<const real> v,
                              std::size_t mesh_size, int order, real t0, real span) {
    std::vector<real> mesh(mesh_size);
    extirpolate(t, v, mesh, order, t0, span);
    return mesh;
}

void extirpolate(std::span<const real> t, std::span<const real> v,
                 std::span<real> mesh, int order, real t0, real span) {
    const std::size_t mesh_size = mesh.size();
    QPSA_EXPECTS(t.size() == v.size());
    QPSA_EXPECTS(span > 0.0);
    QPSA_EXPECTS(mesh_size >= static_cast<std::size_t>(order));
    std::fill(mesh.begin(), mesh.end(), 0.0);
    const real fac = static_cast<real>(mesh_size) / span;
    // One tally for the whole fill: 1 mul + 1 add per position plus each
    // deposit's own count.
    counting::op_counts ops{.adds = t.size(), .muls = t.size()};
    for (std::size_t j = 0; j < t.size(); ++j) {
        real x = (t[j] - t0) * fac;
        // Wrap into [0, mesh_size) -- the mesh is periodic under the FFT.
        x = x - std::floor(x / static_cast<real>(mesh_size)) *
                    static_cast<real>(mesh_size);
        if (x >= static_cast<real>(mesh_size)) x = 0.0;
        spread_uncounted(v[j], mesh, x, order, ops);
    }
    counting::add_to_active(ops);
}

std::vector<real> redistribute_hold(std::span<const real> values, std::size_t m) {
    QPSA_EXPECTS(!values.empty());
    QPSA_EXPECTS(m >= 1);
    std::vector<real> out(m);
    const real scale = static_cast<real>(values.size()) / static_cast<real>(m);
    for (std::size_t i = 0; i < m; ++i) {
        auto src = static_cast<std::size_t>(static_cast<real>(i) * scale);
        if (src >= values.size()) src = values.size() - 1;
        out[i] = values[src];
    }
    return out;
}

}  // namespace qpsa::lomb
