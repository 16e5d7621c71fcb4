// "Traditional" PSA baseline: interpolation + resampling + FFT periodogram.
//
// The paper motivates the Lomb method because traditional approaches
// "were not suitable for unevenly sampled data ... interpolation and
// re-sampling ... may alter the frequency content" (Section II.A).  This
// module implements that traditional estimator -- linear interpolation of
// the RR series onto a uniform grid followed by a tapered FFT
// periodogram -- so the distortion it introduces can be quantified
// against the Lomb estimate (bench_ablation_methods).
#pragma once

#include <span>

#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/dsp/window.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::dsp {
class fft_split_radix;
}

namespace qpsa::lomb {

struct resampled_psd_options {
    real resample_hz = 4.0;  ///< uniform resampling rate (typical HRV: 4 Hz)
    dsp::window_kind taper = dsp::window_kind::hann;
    std::size_t fft_size = 512;  ///< zero-padded transform length
};

/// Linear interpolation of samples (t, x) onto a uniform grid.
std::vector<real> resample_linear(std::span<const real> t,
                                  std::span<const real> x, real rate_hz,
                                  std::size_t max_points);

/// Same resampling with the output drawn from `scratch`; the span lives
/// until the caller's enclosing arena frame unwinds.
std::span<real> resample_linear(std::span<const real> t,
                                std::span<const real> x, real rate_hz,
                                std::size_t max_points, util::arena& scratch);

/// One-sided PSD of the unevenly sampled series via the traditional
/// resample + FFT route.  Counts operations like the other estimators.
dsp::sampled_spectrum resampled_psd(std::span<const real> t,
                                    std::span<const real> x,
                                    const resampled_psd_options& opt = {});

/// Allocation-free core of the same estimator: the one-sided PSD
/// (fft_size / 2 bins; bin k sits at k * resample_hz / fft_size) lands
/// in `out_power`, every intermediate comes from `scratch`, and the
/// caller supplies the transform (`fft.size() == opt.fft_size`) so
/// engines build their twiddles once instead of once per window.  Values
/// and operation counts are bit-identical to the vector overload, which
/// is now a wrapper over this.
void resampled_psd(std::span<const real> t, std::span<const real> x,
                   const resampled_psd_options& opt,
                   const dsp::fft_split_radix& fft, util::arena& scratch,
                   std::span<real> out_power);

// -- phase split of the core ----------------------------------------------
// The core above is prepare -> forward -> finish.  The phases are exposed
// so callers can interleave several estimates through one lane-batched
// transform walk (Welch segments) or feed a series that came from
// elsewhere (the hop-aligned resample grid); chaining them is
// bit-identical to the one-call core.

/// Resample + detrend + taper + zero-pad-pack into `in` (sized
/// opt.fft_size; the resampled grid is drawn from `scratch` and lives
/// until the caller's frame unwinds).  Returns the resampled grid size,
/// which finish needs for normalization.
std::size_t resampled_psd_prepare(std::span<const real> t,
                                  std::span<const real> x,
                                  const resampled_psd_options& opt,
                                  util::arena& scratch, std::span<cplx> in);

/// The tail of prepare for a caller-supplied uniform series: detrend +
/// taper in place (the taper table is memoized in `scratch`), pack
/// zero-padded into `in`.  Returns series.size().
std::size_t resampled_psd_prepare_series(std::span<real> series,
                                         const resampled_psd_options& opt,
                                         util::arena& scratch,
                                         std::span<cplx> in);

/// Normalize the forward transform of a prepared series into the
/// one-sided PSD (fft_size / 2 bins).
void resampled_psd_finish(std::span<const cplx> spec, std::size_t grid_n,
                          const resampled_psd_options& opt,
                          std::span<real> out_power);

}  // namespace qpsa::lomb
