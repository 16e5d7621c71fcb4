// Lifting-scheme implementation of the Db2 (D4) wavelet.
//
// The Daubechies-Sweldens factorization evaluates the 4-tap Db2 analysis
// with 5 multiplies + 4 adds per output pair instead of 8 + 6 for direct
// convolution -- the kind of strength reduction a sensor-node
// implementation would deploy.  Lifting outputs equal the convolution DWT
// up to a fixed circular shift of the subbands (verified in tests); both
// are valid orthogonal W_N choices for the wavelet-FFT factorization.
#pragma once

#include <span>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::wavelet {

/// One Db2 analysis level via lifting.  x.size() must be even and >= 4;
/// the outputs (n/2 each) must not overlap x.  Allocation-free: the
/// lifting passes run in the outputs.
void lifting_db2_analysis(std::span<const real> x, std::span<real> out_a,
                          std::span<real> out_d);

/// Same, but with the detail band re-indexed to the circular-convolution
/// convention of dwt_level(): the raw lifting detail satisfies
/// d_conv[j] = -d_lift[(j+1) mod n/2] (fixed shift + sign; verified by
/// tests).  The permutation costs no arithmetic -- the sign flip and
/// reordering fold into subsequent indexing.
void lifting_db2_analysis_conv(std::span<const real> x, std::span<real> out_a,
                               std::span<real> out_d);

/// Inverse of lifting_db2_analysis (exact, up to rounding).
void lifting_db2_synthesis(std::span<const real> a, std::span<const real> d,
                           std::span<real> out_x);

/// Operation cost per output pair (for complexity tables):
/// {muls, adds} per 2 input samples.
struct lifting_cost {
    unsigned muls;
    unsigned adds;
};
constexpr lifting_cost db2_lifting_cost() { return {5, 4}; }
constexpr lifting_cost db2_convolution_cost() { return {8, 6}; }

}  // namespace qpsa::wavelet
