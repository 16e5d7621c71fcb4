// Split-radix FFT -- the conventional baseline of the paper.
//
// The paper's reference PSA system uses "the split-radix method ... one of
// the fastest known FFT realizations" (Section II.B) and all complexity
// comparisons in Fig. 5 are made against it.  This implementation follows
// the classic recursive decimation-in-time split-radix decomposition
//
//   X[k]        = E[k]     + (W^k O1[k] + W^3k O3[k])
//   X[k+N/2]    = E[k]     - (W^k O1[k] + W^3k O3[k])
//   X[k+N/4]    = E[k+N/4] - i (W^k O1[k] - W^3k O3[k])
//   X[k+3N/4]   = E[k+N/4] + i (W^k O1[k] - W^3k O3[k])
//
// with E the half-size transform of the even samples and O1/O3 the
// quarter-size transforms of x[4m+1]/x[4m+3].  Trivial twiddles (W^0,
// +/-i) are multiplication-free and W^(N/8) multiplies cost 2 muls + 2
// adds, so the measured operation counts reproduce the canonical
// split-radix totals (e.g. 15368 real ops at N = 512).
#pragma once

#include <span>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::dsp {

class fft_split_radix {
public:
    explicit fft_split_radix(std::size_t n);

    std::size_t size() const noexcept { return n_; }

    /// Out-of-place forward transform; attributes op_tally() to the
    /// active scopes.
    void forward(std::span<const cplx> in, std::span<cplx> out) const;

    /// Same transform with recursion scratch drawn from `scratch` (2n
    /// complex values per call) -- allocation-free in steady state.
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 util::arena& scratch) const;

    std::vector<cplx> forward_copy(std::span<const cplx> in) const;

    /// Batched forward: up to simd::kernels().lanes same-plan transforms
    /// interleaved one per SIMD lane through a single recursion walk.
    /// Each output is bit-identical to a scalar forward of its input, and
    /// outs[i] may alias ins[i] (an in-place transform).
    /// Performs NO operation counting (a lane-batched walk cannot count
    /// per-transform); callers attribute op_tally() per transform instead.
    void forward_batched(std::span<const cplx* const> ins,
                         std::span<cplx* const> outs,
                         util::arena& scratch) const;

    /// The exact per-transform operation tally (input-independent;
    /// memoized by a dry run at construction).
    const counting::op_counts& op_tally() const noexcept { return tally_; }

private:
    /// Uncounted recursion, then op_tally() attributed once.
    void run(const cplx* in, cplx* out, cplx* scratch) const;
    /// The counted walk: the constructor's dry run records op_tally().
    void recurse(const cplx* x, std::size_t stride, cplx* out, std::size_t n,
                 cplx* scratch) const;

    std::size_t n_;
    std::vector<cplx> wtab_;  ///< W_N^k for k in [0, N)
    counting::op_counts tally_;
};

}  // namespace qpsa::dsp
