// Welch PSD on the resampled grid, as a registry engine (leaf file).
//
// The classic Welch estimator for HRV: the analysis window is cut into
// overlapping sub-segments, each sub-segment is linearly interpolated
// onto a uniform grid, tapered and passed through an FFT periodogram
// (exactly the resampled_psd pieces), and the per-segment periodograms
// are averaged.  Averaging trades frequency resolution for variance --
// the smoother spectrum a long-term monitoring dashboard wants.
//
// The engine is a whole-window estimator behind the fft_engine seam, so
// the streaming monitor, sessions and the fleet scheduler serve it like
// every other kind; register_welch_engine() installs its builder, making
// the whole estimator a leaf-file addition per the engine_spec contract.
#pragma once

#include "qpsa/dsp/window.hpp"
#include "qpsa/lomb/estimator_engines.hpp"

namespace qpsa::core {
class engine_registry;
}

namespace qpsa::lomb {

class welch_psd_engine final : public lane_batched_estimator {
public:
    welch_psd_engine(std::size_t mesh, real resample_hz, real segment_seconds,
                     real segment_overlap, dsp::window_kind taper)
        : lane_batched_estimator(mesh),
          resample_hz_(resample_hz),
          segment_seconds_(segment_seconds),
          segment_overlap_(segment_overlap),
          taper_(taper),
          fft_(mesh) {}

    std::string name() const override;

protected:
    /// A round prepares every segment of every window, runs one
    /// lane-batched transform walk over all of them and finishes each
    /// window's average.  With a hop context, segments anchor on the
    /// absolute k * seg_hop grid (not the window's first beat), so a
    /// segment's periodogram is a pure function of k.
    void run(std::span<estimate_item> items, util::arena& scratch,
             bool rethrow) const override;

private:
    real resample_hz_;
    real segment_seconds_;
    real segment_overlap_;
    dsp::window_kind taper_;
    /// One transform for every segment (segments share fft_size), built
    /// once at engine construction; per-segment scratch comes from the
    /// worker arena, keeping the window allocation-free.
    dsp::fft_split_radix fft_;
};

/// Install the welch_spec builder (called once from the built-in engine
/// registration; replaceable at runtime like any other builder).
void register_welch_engine(core::engine_registry& reg);

}  // namespace qpsa::lomb
