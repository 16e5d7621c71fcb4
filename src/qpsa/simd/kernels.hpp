// Dispatched vector kernels for the arithmetic core.
//
// One table of function pointers per compiled ISA; simd::kernels() returns
// the active one (see isa.hpp for how it is chosen).  Kernels perform no
// operation counting -- callers add the closed-form tally of the loop they
// replaced, so instrumented totals stay bit-identical to the scalar path.
//
// What belongs in the table: entries that interleave independent problems
// one per lane (sr_batched, burg_lattice, the q15/q31 walks), where the
// lane width is the gain; and a single-stream kernel only when a perf-
// ledger workload measures its per-ISA copy against the scalar loop
// (spread4, on governed-hop's Lagrange extirpolation).  Every other
// single-stream loop is a plain scalar function in its one caller: the
// compiler vectorizes those as well as a hand-written copy did.
//
// Bit-identity contract (what every non-scalar implementation must keep):
//   * each output element is produced by exactly the scalar operation
//     sequence (same multiplies, adds, negations, in the same order);
//   * no FMA contraction, no reassociated sums -- lane-parallel loops only;
//   * sequential reductions (Lomb denominators, band integrals) are NOT in
//     this table on purpose: vectorizing them would reassociate.  Entries
//     that interleave independent problems one per lane (sr_batched,
//     burg_lattice) keep each lane's sums in scalar order, which is
//     lane-parallel again;
//   * integer entries (the fixed-point walks, on native-width lanes: see
//     fixed_kernels) are exact, and their double <-> raw conversions are
//     the scalar conversions' exact results, so they match on any ISA and
//     at any lane count by construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "qpsa/simd/isa.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::simd {

using util_real = qpsa::real;

/// Quantized tables of one fixed-point wavelet-FFT plan, as the lane walk
/// reads them (wfft::fixed_wavelet_fft owns the storage).
template <class Raw>
struct fixed_plan {
    std::size_t n = 0;
    bool band_drop = false;
    bool interstage_shift = true;
    const Raw* tw_re = nullptr;  ///< n/4 sub-FFT twiddles
    const Raw* tw_im = nullptr;
    const std::size_t* bitrev = nullptr;  ///< n/2 bit-reversal indices
    const Raw* fa_re = nullptr;  ///< n/2 diagonal factors each
    const Raw* fa_im = nullptr;
    const Raw* fb_re = nullptr;
    const Raw* fb_im = nullptr;
    const Raw* fc_re = nullptr;
    const Raw* fc_im = nullptr;
    const Raw* fd_re = nullptr;
    const Raw* fd_im = nullptr;
};

/// The fixed-point wavelet FFT's kernels for one Q format, on narrow
/// planes: Q15 in int16 and Q31 in int32 (Narrow), `lanes` lanes per walk,
/// element e of lane l at [e * lanes + l].  The guard proof of
/// fixed_wavelet_fft.hpp bounds every walk value below U = 2^F, which the
/// narrow type holds; only the diagonal-combine sums reach 2U, so the walk
/// writes them to wide planes (Wide, the transform's raw type) and the
/// output pass reads those.  Integer lanes are exact, so every entry is
/// bit-identical to the fixed_point<F> reference on every ISA.
template <class Narrow, class Wide>
struct fixed_kernels {
    /// Items per walk: one native integer vector of Narrow (16 / 8 on
    /// AVX2, 8 / 4 on SSE2, NEON and the scalar reference).
    std::size_t lanes = 0;
    /// The guarded-mode walk of `lanes` lanes: x planes in, combine sums
    /// out to the y planes; `scratch` holds (band_drop ? 2 : 4) * n/2 *
    /// lanes values.  Callers run it only on groups load() accepted (the
    /// guard of fixed_wavelet_fft.hpp).
    void (*walk)(const fixed_plan<Wide>& p, const Narrow* xre,
                 const Narrow* xim, Wide* yre, Wide* yim,
                 Narrow* scratch) = nullptr;
    /// The engine adapter's input pass over `count` <= lanes inputs of n
    /// values: scale[l] = 0.2 / peak |re|,|im| of input l (1 for an
    /// all-zero input), lane l = to_raw(v * scale[l]), lanes >= count
    /// zero.  Returns true iff every raw value lies inside the guard
    /// (|raw| < U/2); the conversion is then exact.  On false the planes
    /// are unspecified and callers convert with the scalar to_raw.
    bool (*load)(const cplx* const* srcs, std::size_t count, std::size_t n,
                 Narrow* re, Narrow* im, real* scale) = nullptr;
    /// The output pass over the walk's y planes: dsts[l][i] = raw / 2^F *
    /// restore[l], l < count.
    void (*store)(const Wide* re, const Wide* im, cplx* const* dsts,
                  std::size_t count, std::size_t n,
                  const real* restore) = nullptr;
};

struct kernel_table {
    isa which = isa::scalar;
    /// Doubles per vector register == lane width of the batched transform
    /// (1 scalar, 2 SSE2/NEON, 4 AVX2).
    std::size_t lanes = 1;

    // -- split-radix FFT: lane-interleaved walk --------------------------
    /// Complete batched split-radix walk of `lanes` same-plan transforms,
    /// one per SIMD lane: srcs[l] / dsts[l] are lane l's n-point input and
    /// output.  The leaves read srcs directly; every level below the top
    /// runs in place in the workspace planes wre/wim (n elements each,
    /// element i of lane l at [i * lanes + l]: each child lands in its
    /// quarter and the level combines there, no further scratch); the top
    /// level combines from the planes into dsts.  So every input is read
    /// before any output is written: dsts[l] may alias srcs[l], and
    /// callers with fewer transforms repeat a lane in both arrays.  The
    /// planes must not alias any input or output.  Twiddles broadcast
    /// (same plan in every lane); each lane executes exactly the scalar
    /// schedule, so lane l's output is bit-identical to a scalar forward
    /// of lane l's input.
    void (*sr_batched)(const cplx* const* srcs, cplx* const* dsts, real* wre,
                       real* wim, std::size_t n, const cplx* wtab) = nullptr;

    // -- extirpolation: order-4 Lagrange spread ---------------------------
    /// Deposit y at fractional mesh position i0 + u (u in [0,1)) with the
    /// division-free cubic weights; mesh wraps circularly at n.
    void (*spread4)(real y, real* mesh, std::size_t n, std::ptrdiff_t i0,
                    real u) = nullptr;

    // -- Burg AR: lane-interleaved lattice ---------------------------------
    /// Burg's reflection recursion (dsp::burg_fit) for `lanes` windows at
    /// once, one per lane, at a common order.  xs[l] / ns[l] is lane l's
    /// zero-mean series (ns[l] > 2 * order); callers with fewer windows
    /// repeat a lane.  Lane l's sums are masked to its own length, so it
    /// performs burg_fit's exact scalar operation sequence: coefficient
    /// a_j lands at coef[l * order + j - 1] and the driving-noise variance
    /// at noise_var[l], bit-identical to a one-lane fit.  `work` holds
    /// (2 * max(ns) + 2 * order + 1) * lanes reals.
    void (*burg_lattice)(const real* const* xs, const std::size_t* ns,
                         std::size_t order, real* work, real* coef,
                         real* noise_var) = nullptr;

    // -- fixed-point wavelet FFT --------------------------------------------
    /// Q15 and Q31 lane walks and adapter conversions (kernels_fixed.inl),
    /// compiled per ISA: each TU instantiates them with its own TU-local
    /// type, so the -mavx2 copies can never be merged into baseline code.
    fixed_kernels<std::int16_t, std::int32_t> q15;
    fixed_kernels<std::int32_t, std::int64_t> q31;
};

/// The table for the active ISA (resolved once; see isa.hpp).
const kernel_table& kernels() noexcept;

/// The table for a specific ISA; nullptr when not compiled into this
/// binary (test/bench comparison entry point -- callers must still gate
/// execution on available_isas() for CPU support).
const kernel_table* kernels_for(isa which) noexcept;

namespace detail {
const kernel_table* scalar_table() noexcept;
const kernel_table* sse2_table() noexcept;   // nullptr off x86-64
const kernel_table* avx2_table() noexcept;   // nullptr off x86-64
const kernel_table* neon_table() noexcept;   // nullptr off aarch64
}  // namespace detail

}  // namespace qpsa::simd
