// Welch-Lomb time-frequency analysis (paper Section II.A).
//
// A sliding window (the paper uses 2 minutes with 50 % overlap) cuts the
// RR record into segments; each segment is normalized (zero mean, unit
// variance), tapered by w(t) evaluated at the uneven beat times, and
// passed through the Fast-Lomb periodogram on a common frequency grid
// (the segment span is fixed, so the grid is identical across segments).
// The normalized periodograms are de-normalized by the factor 2*sigma^2/N
// -- "allows to average the variance of normalized segments" -- and
// averaged into the time-averaged PSD; the per-segment spectra form the
// time-frequency distribution used for hourly monitoring.
#pragma once

#include <span>
#include <vector>

#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/dsp/window.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::lomb {

struct welch_options {
    real window_seconds = 120.0;  ///< segment length (paper: 2 minutes)
    real overlap = 0.5;           ///< fractional overlap (paper: 50 %)
    dsp::window_kind taper = dsp::window_kind::hann;
    fast_lomb_options lomb;       ///< per-segment Fast-Lomb settings
    std::size_t min_beats = 16;   ///< segments with fewer beats are skipped
    /// Upper edge of the common frequency grid (HF band ends at 0.4 Hz;
    /// 0.5 Hz leaves headroom).  Determines the fixed per-segment nout.
    real max_freq_hz = 0.5;
};

struct welch_result {
    /// Time-averaged, de-normalized PSD over all segments.
    dsp::sampled_spectrum averaged;
    /// Per-segment spectra (time-frequency distribution rows).
    std::vector<dsp::sampled_spectrum> segments;
    /// Start time (s) of each segment.
    std::vector<real> segment_start;
    /// Total operation breakdown accumulated over all segments.
    lomb_breakdown ops;
    std::size_t segments_used = 0;
    std::size_t segments_skipped = 0;
};

/// beat_times: monotonically increasing beat instants (s);
/// rr: the RR interval series (s), same length (rr[j] paired with
/// beat_times[j]).  `engine` must match the configured mesh size.
/// `weights`, when non-null, must be make_weight_transform(engine,
/// opt.lomb): each segment then transforms its data mesh only, with the
/// same spectra and ops.  Without it every mesh of every segment reaches
/// `engine` (the calibration captures rely on that).
welch_result welch_lomb(std::span<const real> beat_times, std::span<const real> rr,
                        const fft_engine& engine, const welch_options& opt,
                        const weight_transform* weights = nullptr);

}  // namespace qpsa::lomb
