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
//
// The walk runs in place in the output.  Each child transform writes
// straight into its slice of the level's output:
//
//   [0, N/2)      E   half-size transform of x[2m]
//   [N/2, 3N/4)   O1  quarter-size transform of x[4m+1]
//   [3N/4, N)     O3  quarter-size transform of x[4m+3]
//
// so the combine at bin k reads and rewrites the same four slots k,
// k+N/4, k+N/2, k+3N/4, and no level needs scratch.  The input is read
// to the end of the walk, so it must not overlap the output.
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
    /// active scopes.  Allocation-free; `in` must not overlap `out`.
    void forward(std::span<const cplx> in, std::span<cplx> out) const;

    std::vector<cplx> forward_copy(std::span<const cplx> in) const;

    /// Batched forward: up to simd::kernels().lanes same-plan transforms
    /// interleaved one per SIMD lane through a single recursion walk.
    /// Each output is bit-identical to a scalar forward of its input, and
    /// outs[i] may alias ins[i] (an in-place transform): a lane group
    /// reads all its inputs before it writes any output, and a scalar
    /// remainder whose output aliases its input is copied into `scratch`
    /// first.  Lane groups draw 2 * n * lanes reals of workspace from
    /// `scratch`.
    /// Performs NO operation counting (a lane-batched walk cannot count
    /// per-transform); callers attribute op_tally() per transform instead.
    void forward_batched(std::span<const cplx* const> ins,
                         std::span<cplx* const> outs,
                         util::arena& scratch) const;

    /// The exact per-transform operation tally (input-independent;
    /// memoized by a dry run at construction).
    const counting::op_counts& op_tally() const noexcept { return tally_; }

private:
    /// The counted in-place walk of one level; the constructor's dry run
    /// records op_tally(), forward() runs it paused.
    void recurse(const cplx* x, std::size_t stride, cplx* out,
                 std::size_t n) const;

    std::size_t n_;
    std::vector<cplx> wtab_;  ///< W_N^k for k in [0, N)
    counting::op_counts tally_;
};

}  // namespace qpsa::dsp
