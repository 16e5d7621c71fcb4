// Quality-scalable DWT-based FFT (the paper's core contribution).
//
// Structure per eq. (6)/(7): one orthonormal DWT stage splits the input
// into lowpass/highpass subbands; two half-size FFTs transform the
// subbands; a diagonal combine (the A/B/C/D "twiddle factor" matrices)
// assembles the full spectrum.  Approximation hooks:
//
//   * band drop     -- skip the highpass subband, its FFT and its combine
//                      terms (stage-1 pruning, eq. (7));
//   * factor sets   -- zero the smallest-magnitude diagonal factors
//                      (stage-2 pruning, Sets 1-3 = 20/40/60 %);
//   * dynamic mode  -- run-time comparisons decide the band drop and the
//                      per-term skips from live data magnitudes, at the
//                      cost of counted comparison instructions.
//
// Every arithmetic operation executed is recorded into the active
// counting scope, so complexity tables (Fig. 5) and the energy model
// (Fig. 9) are measured, not estimated.  forward() is the counted walk;
// forward_batched() attributes the tally a counted dry run memoized at
// construction whenever the plan's schedule is input-independent.
//
// Term classes.  The plan compiles its four diagonal factor tables into
// one byte per bin m, two bits per term (a at bits 0-1, b at 2-3, c at
// 4-5, d at 6-7; out[m] sums the a and b terms, out[m + N/2] the c and d
// terms):
//
//   0  structural zero  |f| <= 1e-14: the basis has no such term
//   1  pruned           |f| at or below the static factor threshold
//   2  free rotation    f is +/-1 or +/-i: sign flips and swaps only
//   3  generic          one complex multiply (4 muls + 2 adds)
//
// Classes 0 and 1 contribute no term (they differ only in the pruning
// statistics).  The counted combine reads the class to pick each term
// and its statistics.  The static combine (the batched path's) cuts the
// bins into runs of one byte and runs each output half of a run as one
// loop: branch-free over bins when both terms are generic or absent (the
// all-generic byte, a dropped band's a+c byte, pruned bins), decoded per
// bin when a term is a free rotation.  Both multiply through one
// textbook product helper, (f.re v.re - f.im v.im, f.re v.im + f.im v.re):
// std::complex's operator* for finite values, without its inf/NaN
// recovery.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"
#include "qpsa/wfft/plan.hpp"
#include "qpsa/wfft/twiddle_tables.hpp"

namespace qpsa::wfft {

class wavelet_fft {
public:
    explicit wavelet_fft(plan p);

    const plan& get_plan() const noexcept { return plan_; }
    std::size_t size() const noexcept { return plan_.n; }
    const twiddle_tables& tables() const noexcept { return *tables_; }
    /// The process-shared immutable table this transform reads from
    /// (identical keys alias the same object; see shared_twiddle_tables).
    std::shared_ptr<const twiddle_tables> shared_tables() const noexcept {
        return tables_;
    }

    /// Magnitude threshold below which factors are statically pruned
    /// (-1 when no static pruning is active).
    real factor_threshold() const noexcept { return static_threshold_; }

    /// Effective (post-pruning) top-level factors; zeroed entries are the
    /// statically pruned ones.  Exposed for Fig. 6 and calibration.
    std::span<const cplx> effective_factor_a() const noexcept { return eff_a_; }
    std::span<const cplx> effective_factor_b() const noexcept { return eff_b_; }
    std::span<const cplx> effective_factor_c() const noexcept { return eff_c_; }
    std::span<const cplx> effective_factor_d() const noexcept { return eff_d_; }

    /// Out-of-place forward transform.  in/out must both have size n.
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 exec_stats* stats = nullptr) const;

    /// Same transform with all per-recursion-level subband/sub-spectrum
    /// buffers drawn from `scratch` -- allocation-free in steady state.
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 exec_stats* stats, util::arena& scratch) const;

    std::vector<cplx> forward_copy(std::span<const cplx> in,
                                   exec_stats* stats = nullptr) const;

    /// One transform of a lane-batched walk (forward_batched).
    struct batch_io {
        const cplx* in = nullptr;
        cplx* out = nullptr;
        exec_stats* stats = nullptr;  ///< optional per-transform sink
    };

    /// True when forward_batched interleaves transforms one per SIMD
    /// lane: the single_level tree, whose half-size sub-transforms run
    /// through the split-radix FFT.  Recursive trees (the Fig. 5
    /// op-count ablation) transform one item at a time.
    bool lane_batchable() const noexcept { return sub_split_radix_ != nullptr; }

    /// Forward-transform every item.  single_level trees batch the two
    /// half-size sub-FFTs of all items through
    /// fft_split_radix::forward_batched while the DWT stage, the
    /// per-window band decision and the combine run per item (uncounted,
    /// with the memoized stats attributed per item, unless dynamic
    /// pruning makes the tally data-dependent).  Recursive trees call
    /// forward() per item.  Outputs, exec_stats and operation counts are
    /// bit-identical to calling forward() per item in order.
    void forward_batched(std::span<const batch_io> items,
                         util::arena& scratch) const;

    /// Sub-spectrum of the lowpass band (A = F_{N/2} a) of the last
    /// forward() call is not retained; calibration instead uses
    /// subband_spectra() to observe intermediate magnitudes.
    struct subband_spectra {
        std::vector<cplx> a_fft;  ///< F_{N/2} of the lowpass band
        std::vector<cplx> d_fft;  ///< F_{N/2} of the highpass band
        real d_mean_l1 = 0.0;     ///< mean L1 magnitude of the highpass band
    };
    /// Exact (unpruned) intermediate values for calibration/analysis.
    subband_spectra analyze(std::span<const cplx> in) const;

private:
    friend struct wavelet_fft_access;  ///< white-box tests of the combines

    void forward_impl(std::span<const cplx> in, std::span<cplx> out,
                      exec_stats& stats, util::arena& scratch) const;
    /// Stage 1: the DWT split into a (and d, drawn from scratch unless a
    /// static band drop skips the highpass half) plus the band decision.
    /// Returns whether the highpass band is dropped.
    bool split(std::span<const cplx> in, std::span<cplx> a,
               std::span<cplx>& d, util::arena& scratch) const;
    /// Attribute probe_stats_ to one item: its pruning statistics, and its
    /// ops into st.ops and every scope active at the call.
    void attribute_probe(exec_stats& st) const;
    /// The uncounted combine of a static_tally_ plan (the batched path):
    /// combine()'s values without its tally or statistics.
    void combine_static(const cplx* a_fft, const cplx* d_fft, cplx* out) const;
    void dwt_stage(std::span<const cplx> x, std::span<cplx> a,
                   std::span<cplx> d, util::arena& scratch) const;
    void dwt_stage_lowpass(std::span<const cplx> x, std::span<cplx> a) const;
    void sub_transform_a(std::span<const cplx> in, std::span<cplx> out,
                         exec_stats& stats, util::arena& scratch) const;
    void sub_transform_d(std::span<const cplx> in, std::span<cplx> out,
                         exec_stats& stats, util::arena& scratch) const;
    void combine(std::span<const cplx> a_fft, const cplx* d_fft,
                 std::span<cplx> out, exec_stats& stats) const;

    plan plan_;
    std::shared_ptr<const twiddle_tables> tables_;
    real static_threshold_ = -1.0;
    std::vector<cplx> eff_a_, eff_b_, eff_c_, eff_d_;
    std::vector<real> mag_a_, mag_b_, mag_c_, mag_d_;  ///< |factor| tables
    std::vector<std::uint8_t> term_class_;  ///< per bin; see the header

    std::unique_ptr<dsp::fft_split_radix> sub_split_radix_;  // single_level
    std::unique_ptr<wavelet_fft> sub_a_;  // recursive lowpass child
    std::unique_ptr<wavelet_fft> sub_d_;  // recursive highpass child (exact)

    /// True when the per-transform stats are input-independent:
    /// single_level trees without dynamic pruning.
    bool static_tally_ = false;
    /// Exact per-transform stats of a static_tally_ tree (memoized by a
    /// counted dry run at construction).  forward_batched attributes this
    /// per item instead of counting live.
    exec_stats probe_stats_;
};

/// Direct small DFT used at recursion leaves (counted; sizes 2 and 4 are
/// multiplication-free).
void leaf_dft(std::span<const cplx> in, std::span<cplx> out);

}  // namespace qpsa::wfft
