// Pluggable FFT engine for the Fast-Lomb pipeline.
//
// The paper's controlled comparison swaps only the FFT block: the
// conventional PSA uses a split-radix FFT, the proposed PSA the pruned
// DWT-based FFT.  Everything else (extirpolation, Lomb combine, band
// powers) is shared.  This interface is that swap point.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

namespace qpsa::lomb {

/// Hop-alignment context of one analysis window: window m covers
/// [m * hop, m * hop + window_seconds).  Built by the streaming monitor
/// when the configuration sets lomb.hop_aligned; aligned engines anchor
/// their arithmetic on this global grid instead of the window's first
/// beat, so every output is a function of the configuration, the window's
/// beats and this context only.
struct hop_ctx {
    std::int64_t window_index = 0;  ///< m: window start == m * hop_seconds
    real hop_seconds = 0.0;
    real window_start = 0.0;  ///< the monitor's w0 (== m * hop)
    real window_seconds = 0.0;
};

/// Frequency grid a whole-window estimator must fill: f_k = k * df for
/// k = 1..nout (the Fast-Lomb grid, so every engine kind lands on the
/// same bins and band integration is engine-agnostic).
struct estimate_grid {
    real df = 0.0;
    std::size_t nout = 0;
};

class fft_engine {
public:
    virtual ~fft_engine() = default;

    virtual std::size_t size() const noexcept = 0;
    virtual std::string name() const = 0;

    /// Out-of-place forward transform of `size()` points.  Implementations
    /// count their operations into the active counting scope; approximate
    /// engines additionally report pruning statistics.
    virtual void forward(std::span<const cplx> in, std::span<cplx> out,
                         wfft::exec_stats* stats) const = 0;

    /// Scratch-aware forward: implementations draw internal buffers from
    /// `scratch` so a reused workspace makes the transform allocation-free
    /// in steady state.  The default ignores the arena and runs the
    /// allocating path, so external engine subclasses keep working (and
    /// stay bit-identical) without opting in.
    virtual void forward(std::span<const cplx> in, std::span<cplx> out,
                         wfft::exec_stats* stats, util::arena& scratch) const {
        (void)scratch;
        forward(in, out, stats);
    }

    /// One transform of a batched forward: same-plan input/output pair
    /// plus the stats sink its operations are attributed to.
    struct batch_item {
        std::span<const cplx> in;
        std::span<cplx> out;
        wfft::exec_stats* stats = nullptr;
    };

    /// Number of same-plan transforms a single batched walk can interleave
    /// (1 = no batching win; callers then run items sequentially).
    virtual std::size_t batch_width() const noexcept { return 1; }

    /// Forward-transform every item.  The default runs them sequentially
    /// through forward() -- trivially bit-identical for any engine kind --
    /// and SIMD-capable engines override it to interleave batch_width()
    /// items one per vector lane (each lane executes the scalar schedule,
    /// so per-item outputs and op counts stay bit-identical either way).
    virtual void forward_batched(std::span<const batch_item> items,
                                 util::arena& scratch) const {
        for (const batch_item& it : items)
            forward(it.in, it.out, it.stats, scratch);
    }

    /// Whole-window estimators (Burg AR, direct Lomb, resampled
    /// periodogram, Welch) are not mesh FFTs: they see the raw (t, x)
    /// window and return the normalized periodogram on the grid directly,
    /// bypassing extirpolation and the Lomb combine.  Exactly one of the
    /// two paths is live per engine: whole_window() selects which, and the
    /// inactive entry point is a contract violation.  For these engines
    /// batch_width() counts windows per estimate_batched() round.
    virtual bool whole_window() const noexcept { return false; }

    /// Whole-window estimate into a caller-owned spectrum (vector capacity
    /// is reused across windows) with internal scratch drawn from the
    /// arena.  This is the customization point; the allocating overload
    /// below wraps it.  Contract-fails on mesh-FFT engines.
    virtual void estimate(std::span<const real> t, std::span<const real> x,
                          const estimate_grid& grid, wfft::exec_stats* stats,
                          util::arena& scratch,
                          dsp::sampled_spectrum& out) const;

    /// Hop-aware whole-window estimate: engines that can anchor their
    /// arithmetic on the monitor's global hop grid (Welch segmentation,
    /// uniform resampling) override this.  The default discards the
    /// context and runs the plain path, so every other engine keeps its
    /// exact behavior.
    virtual void estimate(std::span<const real> t, std::span<const real> x,
                          const estimate_grid& grid, wfft::exec_stats* stats,
                          util::arena& scratch, dsp::sampled_spectrum& out,
                          const hop_ctx* ctx) const {
        (void)ctx;
        estimate(t, x, grid, stats, scratch, out);
    }

    /// One window of a batched whole-window estimate: the arguments of the
    /// hop-aware estimate() above, plus `ops`, a caller sink the window's
    /// operations are also counted into (the Fast-Lomb breakdown's fft
    /// phase), and the window's verdict.
    struct estimate_item {
        std::span<const real> t;
        std::span<const real> x;
        estimate_grid grid;
        wfft::exec_stats* stats = nullptr;
        counting::op_counts* ops = nullptr;
        dsp::sampled_spectrum* out = nullptr;
        const hop_ctx* ctx = nullptr;
        bool ok = false;
    };

    /// Estimate several windows of one engine in one call.  Contract, per
    /// item: spectrum, exec_stats and op tallies (into `ops`, `stats` and
    /// every scope active at the call) are bit-identical to the item's own
    /// hop-aware estimate() run under a count_scope on `ops`.  A window
    /// that fails its data contracts gets ok = false instead of throwing;
    /// its partial tallies are those the single call would have left when
    /// it threw, and no other item is affected.  The default runs the
    /// items one after another through estimate(), so the direct-Lomb
    /// engine and any wrapper engine keep working unchanged; Burg,
    /// resampled and Welch override it to share lane-batched kernels
    /// across the round.  Rounds hold batch_width() windows.
    virtual void estimate_batched(std::span<estimate_item> items,
                                  util::arena& scratch) const;

    /// Allocating convenience wrapper around the virtual above.
    dsp::sampled_spectrum estimate(std::span<const real> t,
                                   std::span<const real> x,
                                   const estimate_grid& grid,
                                   wfft::exec_stats* stats) const;
};

/// Conventional engine: split-radix FFT (the paper's baseline).
class split_radix_engine final : public fft_engine {
public:
    explicit split_radix_engine(std::size_t n) : fft_(n) {}
    std::size_t size() const noexcept override { return fft_.size(); }
    std::string name() const override { return "split-radix"; }
    /// The split-radix walk needs no scratch, so the arena overload is
    /// the base default (which forwards here).
    using fft_engine::forward;
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats) const override;
    std::size_t batch_width() const noexcept override;
    void forward_batched(std::span<const batch_item> items,
                         util::arena& scratch) const override;

private:
    dsp::fft_split_radix fft_;
};

/// Proposed engine: quality-scalable wavelet FFT.
class wavelet_engine final : public fft_engine {
public:
    explicit wavelet_engine(wfft::plan p) : fft_(std::move(p)) {}
    std::size_t size() const noexcept override { return fft_.size(); }
    std::string name() const override;
    using fft_engine::forward;
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats) const override;
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats, util::arena& scratch) const override;
    std::size_t batch_width() const noexcept override;
    void forward_batched(std::span<const batch_item> items,
                         util::arena& scratch) const override;
    const wfft::wavelet_fft& transform() const noexcept { return fft_; }

private:
    wfft::wavelet_fft fft_;
};

std::unique_ptr<fft_engine> make_split_radix_engine(std::size_t n);
std::unique_ptr<fft_engine> make_wavelet_engine(wfft::plan p);

}  // namespace qpsa::lomb
