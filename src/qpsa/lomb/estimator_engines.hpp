// Whole-window spectral estimators behind the fft_engine seam.
//
// Burg AR, the direct Lomb evaluation and the traditional resample+FFT
// periodogram do not factor into "extirpolate, transform, combine" -- they
// estimate the window's spectrum in one piece.  Each is wrapped as a
// whole_window() engine so the unchanged Welch pipeline (and therefore the
// streaming monitor, sessions and fleet scheduler) can serve them exactly
// like the mesh-FFT engines: same frequency grid, same normalized output
// convention, same operation accounting.
#pragma once

#include <optional>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/dsp/window.hpp"
#include "qpsa/lomb/fft_engine.hpp"

namespace qpsa::lomb {

/// Count into an engine's stats sink in addition to the caller's active
/// scopes (mirrors what forward() engines do via count_scope); shared by
/// every whole-window estimator.
class estimator_stats_scope {
public:
    explicit estimator_stats_scope(wfft::exec_stats* stats) {
        if (stats != nullptr) scope_.emplace(stats->ops);
    }

private:
    std::optional<counting::count_scope> scope_;
};

/// The phase driver of a batched whole-window estimate: runs `fn(i, item)`
/// for every item still ok, inside that item's counting scopes (its
/// `ops` sink and its exec_stats sink), so each window counts exactly what
/// its single estimate() would.  A contract failure marks the item failed
/// (later phases skip it) and, with `rethrow` (a single estimate() call),
/// propagates.
template <class Fn>
void for_each_window(std::span<fft_engine::estimate_item> items, bool rethrow,
                     Fn&& fn) {
    for (std::size_t i = 0; i < items.size(); ++i) {
        fft_engine::estimate_item& it = items[i];
        if (!it.ok) continue;
        std::optional<counting::count_scope> caller;
        if (it.ops != nullptr) caller.emplace(*it.ops);
        estimator_stats_scope scope(it.stats);
        try {
            fn(i, it);
        } catch (const contract_error&) {
            it.ok = false;
            if (rethrow) throw;
        }
    }
}

/// Interpolate a uniform-rate one-sided PSD (bin spacing `raw_df`) onto
/// the pipeline grid f_k = (k+1) * grid.df and apply the shared
/// normalized-periodogram convention (PSD * N / (2 sigma^2) of the
/// analyzed window `x`).  One implementation so the resampled and Welch
/// estimators cannot drift apart.
void map_uniform_psd_onto_grid(std::span<const real> power, real raw_df,
                               const estimate_grid& grid,
                               std::span<const real> x,
                               dsp::sampled_spectrum& out);

/// Common scaffolding: nominal size() (the pipeline mesh the engine is
/// keyed to), contract-failing forward().
class whole_window_engine : public fft_engine {
public:
    explicit whole_window_engine(std::size_t mesh) : mesh_(mesh) {}
    std::size_t size() const noexcept final { return mesh_; }
    bool whole_window() const noexcept final { return true; }
    using fft_engine::estimate;
    void forward(std::span<const cplx>, std::span<cplx>,
                 wfft::exec_stats*) const final {
        QPSA_EXPECTS(false);  // whole-window engines have no mesh-FFT path
    }

private:
    std::size_t mesh_;
};

/// A whole-window estimator whose single and batched estimates are one
/// phased implementation, run(): a single estimate() is a round of one
/// window that rethrows its contract failure.  Rounds hold one window per
/// vector lane.
class lane_batched_estimator : public whole_window_engine {
public:
    using whole_window_engine::whole_window_engine;
    using whole_window_engine::estimate;
    std::size_t batch_width() const noexcept final;
    void estimate(std::span<const real> t, std::span<const real> x,
                  const estimate_grid& grid, wfft::exec_stats* stats,
                  util::arena& scratch,
                  dsp::sampled_spectrum& out) const final;
    void estimate(std::span<const real> t, std::span<const real> x,
                  const estimate_grid& grid, wfft::exec_stats* stats,
                  util::arena& scratch, dsp::sampled_spectrum& out,
                  const hop_ctx* ctx) const final;
    void estimate_batched(std::span<estimate_item> items,
                          util::arena& scratch) const final;

protected:
    /// Estimate every item (all enter with ok == true) through
    /// for_each_window phases.
    virtual void run(std::span<estimate_item> items, util::arena& scratch,
                     bool rethrow) const = 0;
};

/// Burg maximum-entropy estimator: uniform resampling, AR(p) fit,
/// evaluation of the model PSD on the pipeline grid.  A round fits its
/// windows through the lane-interleaved lattice kernel.
class burg_engine final : public lane_batched_estimator {
public:
    burg_engine(std::size_t mesh, std::size_t order, real resample_hz)
        : lane_batched_estimator(mesh),
          order_(order),
          resample_hz_(resample_hz) {}
    std::string name() const override;

protected:
    void run(std::span<estimate_item> items, util::arena& scratch,
             bool rethrow) const override;

private:
    std::size_t order_;
    real resample_hz_;
};

/// Direct O(N * Nfreq) Lomb-Scargle evaluation (accuracy reference).
class direct_lomb_engine final : public whole_window_engine {
public:
    explicit direct_lomb_engine(std::size_t mesh)
        : whole_window_engine(mesh) {}
    std::string name() const override { return "direct-lomb"; }
    void estimate(std::span<const real> t, std::span<const real> x,
                  const estimate_grid& grid, wfft::exec_stats* stats,
                  util::arena& scratch,
                  dsp::sampled_spectrum& out) const override;
};

/// Traditional estimator: interpolation + resampling + tapered FFT
/// periodogram, interpolated onto the pipeline grid.  A round prepares
/// every window's tapered series, runs one lane-batched transform walk
/// over them and finishes each periodogram.
class resampled_engine final : public lane_batched_estimator {
public:
    resampled_engine(std::size_t mesh, real resample_hz, dsp::window_kind taper)
        : lane_batched_estimator(mesh),
          resample_hz_(resample_hz),
          taper_(taper),
          fft_(mesh) {}
    std::string name() const override;

protected:
    void run(std::span<estimate_item> items, util::arena& scratch,
             bool rethrow) const override;

private:
    /// Hop-aligned series: the uniform grid sits at global indices g
    /// (t = g / rate) instead of anchoring on the window's first beat, so
    /// the interpolated series of the overlap range is bitwise stable
    /// across windows.
    std::span<real> aligned_series(std::span<const real> t,
                                   std::span<const real> x,
                                   util::arena& scratch) const;

    real resample_hz_;
    dsp::window_kind taper_;
    /// Owned transform (immutable, so shared across workers like the
    /// engine itself): per-window scratch then comes entirely from the
    /// worker arena -- the alloc budget the perf ledger gates on.
    dsp::fft_split_radix fft_;
};

}  // namespace qpsa::lomb
