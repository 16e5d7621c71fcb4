// Dispatched vector kernels for the arithmetic core.
//
// One table of function pointers per compiled ISA; simd::kernels() returns
// the active one (see isa.hpp for how it is chosen).  Kernels perform no
// operation counting -- callers add the closed-form tally of the loop they
// replaced, so instrumented totals stay bit-identical to the scalar path.
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
//   * integer entries (the fixed-point walks) are exact, and their
//     double <-> raw conversions are the scalar conversions' exact
//     results, so they match on any ISA by construction.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "qpsa/simd/isa.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::simd {

using util_real = qpsa::real;

/// Db2 lifting constants, shared by the scalar reference
/// (wavelet/lifting.cpp) and every vector kernel: computed identically so
/// the lanes multiply by bitwise-equal factors.
inline const real k_lift_sqrt3 = std::sqrt(3.0);
inline const real k_lift_c1 = k_lift_sqrt3 / 4.0;
inline const real k_lift_c2 = (k_lift_sqrt3 - 2.0) / 4.0;
inline const real k_lift_sa = (k_lift_sqrt3 - 1.0) / sqrt2;
inline const real k_lift_sd = (k_lift_sqrt3 + 1.0) / sqrt2;

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

/// The fixed-point wavelet FFT's kernels for one Q format: L = 8 int32
/// lanes (Q15) or 4 int64 lanes (Q31), element e of lane l at [e * L + l].
/// Integer lanes are exact, so every entry is bit-identical to the
/// fixed_point<F> reference on every ISA.
template <class Raw>
struct fixed_kernels {
    /// The guarded-mode walk of L lanes, in place; `scratch` holds
    /// (band_drop ? 2 : 4) * n/2 * L values.  Callers run it only on
    /// groups load() accepted (the guard of fixed_wavelet_fft.hpp).
    void (*walk)(const fixed_plan<Raw>& p, Raw* re, Raw* im,
                 Raw* scratch) = nullptr;
    /// The engine adapter's input pass over `count` <= L inputs of n
    /// values: scale[l] = 0.2 / peak |re|,|im| of input l (1 for an
    /// all-zero input), lane l = to_raw(v * scale[l]), lanes >= count
    /// zero.  Returns true iff every raw value lies inside the guard
    /// (|raw| < U/2); the conversion is then exact.  On false the planes
    /// are unspecified and callers convert with the scalar to_raw.
    bool (*load)(const cplx* const* srcs, std::size_t count, std::size_t n,
                 Raw* re, Raw* im, real* scale) = nullptr;
    /// The output pass: dsts[l][i] = raw / 2^F * restore[l], l < count.
    void (*store)(const Raw* re, const Raw* im, cplx* const* dsts,
                  std::size_t count, std::size_t n,
                  const real* restore) = nullptr;
};

struct kernel_table {
    isa which = isa::scalar;
    /// Doubles per vector register == lane width of the batched transform
    /// (1 scalar, 2 SSE2/NEON, 4 AVX2).
    std::size_t lanes = 1;

    // -- split-radix FFT --------------------------------------------------
    /// One combine pass (all k in [0, n/4)) of the recursive split-radix
    /// decomposition, in place: on entry x holds E (the half-size even
    /// transform) in [0, n/2), O1 in [n/2, 3n/4) and O3 in [3n/4, n) (the
    /// quarter-size odd transforms), on exit the n-point transform.  Bin k
    /// reads and writes only slots k, k+n/4, k+n/2, k+3n/4, loading all
    /// four before it stores.  Twiddles from wtab with stride tstep;
    /// includes the k == 0 and 8k == n multiplication-free specials.  No
    /// scratch.
    void (*sr_combine)(cplx* x, std::size_t n, const cplx* wtab,
                       std::size_t tstep) = nullptr;

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

    // -- wavelet: folded Haar butterflies ---------------------------------
    /// a[k] = x[2k] + x[2k+1], d[k] = x[2k] - x[2k+1]; the _real variants
    /// use only the real parts and write exact 0.0 imaginaries.
    void (*haar_stage_real)(const cplx* x, cplx* a, cplx* d,
                            std::size_t half) = nullptr;
    void (*haar_stage_cplx)(const cplx* x, cplx* a, cplx* d,
                            std::size_t half) = nullptr;
    void (*haar_lowpass_real)(const cplx* x, cplx* a,
                              std::size_t half) = nullptr;
    void (*haar_lowpass_cplx)(const cplx* x, cplx* a,
                              std::size_t half) = nullptr;

    // -- wavelet: Db2 lifting analysis ------------------------------------
    /// The three lifting passes over one real lane of length 2*half
    /// (s1/d1 are caller scratch of `half` each); circular wrap elements
    /// are computed scalar inside the kernel, interiors vectorize.
    void (*lifting_db2)(const real* x, real* s1, real* d1, real* out_a,
                        real* out_d, std::size_t half) = nullptr;

    // -- extirpolation: order-4 Lagrange spread ---------------------------
    /// Deposit y at fractional mesh position i0 + u (u in [0,1)) with the
    /// division-free cubic weights; mesh wraps circularly at n.
    void (*spread4)(real y, real* mesh, std::size_t n, std::ptrdiff_t i0,
                    real u) = nullptr;

    // -- packing / spectrum power -----------------------------------------
    /// out[i] = cplx{a[i], b[i]} (the real-pair FFT packing).
    void (*pack_real_pair)(const real* a, const real* b, cplx* out,
                           std::size_t n) = nullptr;
    /// out[i] = cplx{a[i], 0.0} (real mesh -> complex FFT input).
    void (*widen_real)(const real* a, cplx* out, std::size_t n) = nullptr;
    /// out[k] = (re^2 + im^2) * norm -- the one-sided PSD power loop.
    void (*power_norm)(const cplx* spec, real* out, real norm,
                       std::size_t n) = nullptr;

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
    fixed_kernels<std::int32_t> q15;
    fixed_kernels<std::int64_t> q31;
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
