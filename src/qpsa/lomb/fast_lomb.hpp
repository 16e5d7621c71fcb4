// Fast-Lomb periodogram (Press & Rybicki 1989, the paper's ref. [10]).
//
// Pipeline per the paper's Fig. 1(a): the RR window is extirpolated onto a
// fixed power-of-two mesh, the mesh pair (data, unit weights) is
// transformed by the pluggable FFT engine (two transforms, or one of the
// packed pair), and the "Lomb calculator" combines the four trigonometric
// sums into the normalized periodogram.  The FFT engine is where the
// conventional (split-radix) and proposed (pruned wavelet) systems differ.
//
// On a staircase mesh the weight mesh does not depend on the window's
// data, so its transform can be computed once (weight_transform) and
// replayed per window: outputs and op tallies stay those of the full
// two-transform pipeline.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/lomb/fft_engine.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::lomb {

/// How samples are redistributed onto the FFT mesh.
enum class mesh_mode {
    /// Press-Rybicki Lagrange extirpolation (NR's fasper): exact fast
    /// approximation of the true Lomb sums on irregular times.
    lagrange_extirpolation,
    /// Sample-and-hold staircase onto mesh/ofac evenly spaced cells,
    /// zero-padded to the mesh (paper Fig. 3: "117 RR-intervals
    /// extrapolated to 256 values", then the 512 FFT).  The piecewise
    /// constant mesh is what makes the detail band near-zero and the
    /// paper's band-drop pruning benign.
    staircase_hold,
};

/// How the two real meshes are transformed.
enum class fft_packing {
    /// Two complex FFTs, one per mesh -- the structure of the paper's
    /// Fig. 1(a) ("The FFTs then calculate the four sums").
    two_transforms,
    /// One complex FFT of the packed pair + Hermitian unpack: halves the
    /// FFT work (offered as an optimization ablation).
    packed_single,
};

struct fast_lomb_options {
    /// Oversampling factor of the frequency grid (typ. 4).
    real ofac = 4.0;
    /// Highest frequency as multiple of the mean Nyquist rate.
    real hifac = 1.0;
    /// Extirpolation kernel order (NR's MACC); lagrange mode only.
    int macc = 4;
    mesh_mode mesh = mesh_mode::lagrange_extirpolation;
    fft_packing packing = fft_packing::two_transforms;
    /// Fixed mesh (= FFT) size; 0 derives the size from ofac/hifac/n.
    /// The paper fixes 512.
    std::size_t mesh_size = 512;
    /// Fixed window span in seconds; 0 uses t.back() - t.front().  Fixing
    /// the span gives every Welch segment the same frequency grid.
    real span_override = 0.0;
    /// Fixed number of output frequencies; 0 derives it from the sample
    /// count (0.5 * ofac * hifac * n).  Welch segmentation fixes it so all
    /// segments share one grid.
    std::size_t nout_override = 0;
    /// Anchor window arithmetic on the monitor's global hop grid (the
    /// hop_ctx of each window) instead of the window's first beat;
    /// requires span_override > 0.  Lagrange meshes place a beat by its
    /// hop cell and its offset inside that cell, Welch cuts segments at
    /// global multiples of the segment hop, and the resampled engine
    /// samples global multiples of 1 / rate -- so each beat's
    /// contribution is a pure function of the beat itself.  A mesh the
    /// grid cannot align (a hop that is not a whole number of mesh cells,
    /// staircase mode, macc other than 1 or 4) keeps the
    /// first-beat-anchored fill.
    bool hop_aligned = false;

    /// Equal options + the same engine = the same arithmetic: the batch
    /// scheduler groups windows across sessions on exactly this.
    bool operator==(const fast_lomb_options&) const = default;
};

/// Per-phase operation breakdown (for the Fig. 1(b) profiling experiment).
struct lomb_breakdown {
    counting::op_counts moments;        ///< mean/variance of the window
    counting::op_counts extirpolation;  ///< mesh redistribution
    counting::op_counts fft;            ///< the two packed real FFTs
    counting::op_counts combine;        ///< Lomb calculator
    wfft::exec_stats fft_stats;         ///< pruning stats of the FFT engine

    counting::op_counts total() const {
        return moments + extirpolation + fft + combine;
    }
};

struct lomb_result {
    dsp::sampled_spectrum spectrum;
    std::size_t n_samples = 0;
    real mesh_span = 0.0;
};

/// Weight half of one Lomb-calculator bin: every term of bin k that
/// depends only on the weight sums and n_eff.
struct weight_bin {
    real cwt = 0.0;
    real swt = 0.0;
    real den = 0.0;   ///< cosine-term denominator
    real den2 = 0.0;  ///< sine-term denominator
};

/// The weight transform of a staircase_hold, two_transforms pipeline.  Its
/// weight mesh (a unit weight at the doubled position of each of the
/// mesh / ofac data cells) is a pure function of the mesh size and ofac,
/// so every window of one engine transforms the same input.  Built once,
/// it holds that transform, the exec_stats it recorded and the weight half
/// of every combine bin; a window given it submits only its data mesh to
/// the engine and replays the recorded tally, so its spectrum, breakdown
/// and exec_stats equal the two-transform run's bit for bit.
struct weight_transform {
    std::size_t n_data = 0;        ///< staircase data cells (the window's n_eff)
    std::vector<cplx> spectrum;    ///< engine forward of the weight mesh
    wfft::exec_stats stats;        ///< what that forward recorded
    std::vector<weight_bin> bins;  ///< bins[k - 1] for k in [1, mesh / 2)
};

/// The weight transform of `opt` through `engine`, computed with counting
/// paused (the tally lands in .stats only).  Null when the pipeline has no
/// data-independent mesh: Lagrange meshes, packed_single, whole-window
/// engines, a derived mesh size, or an ofac whose windows fail their
/// contracts anyway.
std::shared_ptr<const weight_transform> make_weight_transform(
    const fft_engine& engine, const fast_lomb_options& opt);

/// Compute the normalized Lomb periodogram of (t, x) through `engine`.
/// engine.size() must equal the effective mesh size.  If `breakdown` is
/// non-null the per-phase operation counts are stored there.
lomb_result fast_lomb(std::span<const real> t, std::span<const real> x,
                      const fft_engine& engine, const fast_lomb_options& opt,
                      lomb_breakdown* breakdown = nullptr);

/// Workspace-reusing variant: all mesh/FFT scratch is drawn from `ws` and
/// the result is written into `out` (whose vectors keep their capacity
/// across calls).  Bit-identical to the allocating overload -- it is the
/// same arithmetic; only buffer provenance differs.  `weights`, when
/// non-null, must be make_weight_transform(engine, opt): the window then
/// transforms its data mesh only, with the same result and breakdown.
/// Throws contract_error when the window fails its data contracts.
void fast_lomb(std::span<const real> t, std::span<const real> x,
               const fft_engine& engine, const fast_lomb_options& opt,
               workspace& ws, lomb_result& out,
               lomb_breakdown* breakdown = nullptr,
               const hop_ctx* ctx = nullptr,
               const weight_transform* weights = nullptr);

/// One window of a batched Fast-Lomb run.  `out`/`bd` must be non-null;
/// `ok` reports whether the window passed its data contracts (windows
/// failing them are skipped exactly as the scalar path would throw).
struct window_job {
    std::span<const real> t;
    std::span<const real> x;
    lomb_result* out = nullptr;
    lomb_breakdown* bd = nullptr;
    /// Per-job hop-alignment context (jobs in one batch come from
    /// different sessions, each at its own window); null when the
    /// configuration is not hop-aligned.
    const hop_ctx* ctx = nullptr;
    bool ok = false;
};

/// Analyze several same-plan windows, interleaving their mesh FFTs one per
/// SIMD lane through one engine.forward_batched() call (whole-window
/// estimators: one engine.estimate_batched() call).  Runs the same
/// per-window phases as fast_lomb, so every job's spectrum and per-phase
/// op breakdown is bit-identical to a fast_lomb call; a window failing its
/// data contracts sets ok = false instead of throwing.  Windows run in
/// rounds of batch_width() (one at a time for engines without lanes), so
/// scratch stays one lane group deep.  `weights` is as for fast_lomb.
/// This is the path the streaming service runs.
void fast_lomb_batched(std::span<window_job> jobs, const fft_engine& engine,
                       const fast_lomb_options& opt, workspace& ws,
                       const weight_transform* weights = nullptr);

/// Effective power-of-two FFT mesh size for a configuration and sample
/// count (opt.mesh_size, or derived from ofac/hifac/macc when 0).
std::size_t fast_lomb_mesh_size(std::size_t n_samples,
                                const fast_lomb_options& opt);

/// Number of output frequencies for a given configuration and sample
/// count (bounded by the mesh's usable bins).
std::size_t fast_lomb_nout(std::size_t n_samples, const fast_lomb_options& opt);

}  // namespace qpsa::lomb
