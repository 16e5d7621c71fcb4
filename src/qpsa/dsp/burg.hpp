// Burg autoregressive (maximum-entropy) spectral estimation.
//
// The third classic HRV spectral estimator next to FFT periodograms and
// the Lomb method: fit an AR(p) model by Burg's reflection-coefficient
// recursion and evaluate  P(f) = s2 / |1 + sum_k a_k e^{-2 pi i f k}|^2.
// Operates on uniformly resampled data; included as a baseline for the
// method-comparison ablation.
#pragma once

#include <span>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::dsp {

/// An AR model whose coefficients live elsewhere (an arena, a model).
struct burg_coeffs {
    std::span<const real> a;  ///< a_1..a_p (sign convention: 1 + sum a_k z^-k)
    real noise_var = 0.0;     ///< driving-noise variance
    std::size_t order() const noexcept { return a.size(); }
};

/// An AR model owning its coefficients (one-shot callers).
struct burg_model {
    std::vector<real> a;    ///< AR coefficients a_1..a_p (sign convention: 1 + sum a_k z^-k)
    real noise_var = 0.0;   ///< driving-noise variance
    std::size_t order() const noexcept { return a.size(); }
    operator burg_coeffs() const noexcept { return {a, noise_var}; }
};

/// Fit an AR(p) model with Burg's method.  x must be zero-mean-ish and
/// longer than 2p.  Allocates the model: for one-shot callers.
burg_model burg_fit(std::span<const real> x, std::size_t order);

/// Same fit with the coefficients and the prediction-error scratch drawn
/// from `scratch`: no heap traffic once the arena is warm.  The
/// coefficients stay valid until the caller's enclosing frame unwinds.
burg_coeffs burg_fit(std::span<const real> x, std::size_t order,
                     util::arena& scratch);

/// The fit's operation tally for a series of n samples at `order`
/// (closed form of the recursion's trip counts).
counting::op_counts burg_fit_tally(std::size_t n, std::size_t order);

/// Evaluate the AR PSD at the given frequencies for sample rate fs: one
/// cos and one sin per frequency, the denominator by Horner's rule in
/// real arithmetic.  The model's order must be at least 1.
dsp::sampled_spectrum burg_psd(const burg_coeffs& model, real fs_hz,
                               std::span<const real> freqs_hz);

/// Evaluate into caller-provided power storage (power.size() must equal
/// freqs_hz.size(); the frequency grid stays with the caller).
void burg_psd(const burg_coeffs& model, real fs_hz,
              std::span<const real> freqs_hz, std::span<real> power);

}  // namespace qpsa::dsp
