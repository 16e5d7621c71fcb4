// Fixed-point wavelet-FFT engine: the node-faithful datapath behind the
// standard fft_engine seam.
//
// The double-precision engines *price* a sensor node's arithmetic; this
// one *computes* like one, running wfft::fixed_wavelet_fft (Q-format
// arithmetic with block-floating interstage shifts) under the
// unchanged Fast-Lomb pipeline.  The adapter scales each input block into
// the Q range (deterministically, from the block's own peak, so fleet and
// serial runs stay bit-identical), runs the fixed transform, and undoes
// both the input scale and the transform's 1/N block-floating scale on
// the way out -- the Lomb combine then sees values on the mathematical
// DFT scale it expects.
//
// Batched forwards interleave batch_width() items per raw-integer lane
// walk through the dispatched kernel table (simd::kernel_table::q15 /
// q31, compiled per ISA): the input conversion into narrow planes (Q15 in
// int16, Q31 in int32; see fixed_wavelet_fft.hpp for why they suffice),
// the guarded walk, and the output pass over its wide combine sums.  The
// table sets the width: one native integer vector (16 Q15 or 8 Q31 items
// on AVX2).  A single forward, a one-item group and a group outside the
// guard run the transform's reference path one item at a time.  Integer
// lanes are exact, so outputs, exec_stats and op tallies are identical
// either way.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/lomb/fft_engine.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/wfft/fixed_wavelet_fft.hpp"

namespace qpsa::lomb {

template <unsigned FracBits>
class fixed_wavelet_engine final : public fft_engine {
public:
    using transform = wfft::fixed_wavelet_fft<FracBits>;

    static_assert(FracBits == 15 || FracBits == 31,
                  "the kernel table carries Q15 and Q31 walks");

    explicit fixed_wavelet_engine(typename transform::config cfg)
        : fft_(cfg), ops_per_forward_(count_ops(fft_)) {
        // The restore factor below assumes the 1/N block-floating scale;
        // without interstage shifting a 512-point transform would also
        // saturate the Q range long before the combine stage.
        QPSA_EXPECTS(cfg.interstage_shift);
    }

    std::size_t size() const noexcept override {
        return fft_.get_config().n;
    }

    std::string name() const override {
        // Built with repeated += (not operator+ chains): GCC 12's
        // -Wrestrict false positive (PR 105651) fires on the rvalue
        // "literal" + string form when inlined into other TUs.
        const auto& c = fft_.get_config();
        std::string n = "fixed-wavelet-q";
        n += std::to_string(FracBits);
        if (c.band_drop) n += ",band-drop";
        if (c.twiddle_fraction > 0.0) {
            n += ",";
            n += std::to_string(static_cast<int>(c.twiddle_fraction * 100.0));
            n += "%";
        }
        n += "(";
        n += std::to_string(c.n);
        n += ")";
        return n;
    }

    using fft_engine::forward;
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats) const override {
        util::arena scratch;
        forward(in, out, stats, scratch);
    }

    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats, util::arena& scratch) const override {
        const batch_item item{in, out, stats};
        run_reference(item, scratch);
    }

    /// Transforms one integer walk interleaves: the kernel table's lane
    /// count.  Integer lanes are exact, so the width never changes an
    /// output.
    std::size_t batch_width() const noexcept override {
        return kernels().lanes;
    }

    void forward_batched(std::span<const batch_item> items,
                         util::arena& scratch) const override {
        const kernel_set& k = kernels();
        for (std::size_t b = 0; b < items.size(); b += k.lanes) {
            const std::span<const batch_item> group =
                items.subspan(b, std::min(k.lanes, items.size() - b));
            if (group.size() == 1 || !run_kernels(k, group, scratch))
                for (const batch_item& it : group) run_reference(it, scratch);
        }
    }

private:
    using raw_type = typename transform::raw_type;
    using narrow_type =
        std::conditional_t<FracBits <= 15, std::int16_t, std::int32_t>;
    using kernel_set = simd::fixed_kernels<narrow_type, raw_type>;
    static constexpr std::size_t max_lanes = 16;

    static const kernel_set& kernels() noexcept {
        if constexpr (FracBits == 15)
            return simd::kernels().q15;
        else
            return simd::kernels().q31;
    }

    /// One kernel walk over the group (unused lanes run zeros); false,
    /// with no output written, when the group fails the guard.
    bool run_kernels(const kernel_set& k, std::span<const batch_item> group,
                     util::arena& scratch) const {
        if (!fft_.guard_ok()) return false;
        const std::size_t n = size();
        const std::size_t lanes = k.lanes;
        QPSA_EXPECTS(lanes <= max_lanes);
        util::arena::frame frame(scratch);
        narrow_type* re =
            scratch.template alloc_aligned<narrow_type>(n * lanes).data();
        narrow_type* im =
            scratch.template alloc_aligned<narrow_type>(n * lanes).data();
        const cplx* srcs[max_lanes];
        cplx* dsts[max_lanes];
        for (std::size_t l = 0; l < group.size(); ++l) {
            const batch_item& it = group[l];
            QPSA_EXPECTS(it.in.size() == n && it.out.size() == n);
            srcs[l] = it.in.data();
            dsts[l] = it.out.data();
        }

        // Peak-normalize each lane into the Q range.  0.2 leaves headroom
        // over the |x| < ~0.25 bound the transform's interstage shifting
        // assumes, and keeps every finite lane inside the guarded mode.
        std::array<real, max_lanes> scale{};
        if (!k.load(srcs, group.size(), n, re, im, scale.data())) return false;
        raw_type* yre = scratch.template alloc_aligned<raw_type>(n * lanes).data();
        raw_type* yim = scratch.template alloc_aligned<raw_type>(n * lanes).data();
        narrow_type* planes =
            scratch.template alloc_aligned<narrow_type>(fft_.walk_scratch(lanes))
                .data();
        k.walk(fft_.plan(), re, im, yre, yim, planes);

        // Undo the input scale and the transform's 1/N block-floating
        // scale so downstream sees the mathematical DFT.
        std::array<real, max_lanes> restore{};
        for (std::size_t l = 0; l < group.size(); ++l)
            restore[l] = static_cast<real>(n) / scale[l];
        k.store(yre, yim, dsts, group.size(), n, restore.data());
        for (const batch_item& it : group) charge(it);
        return true;
    }

    /// The reference path of one item: the scalar to_raw (exact for every
    /// input, guarded or not) and the transform's own walk.
    void run_reference(const batch_item& it, util::arena& scratch) const {
        const std::size_t n = size();
        QPSA_EXPECTS(it.in.size() == n && it.out.size() == n);
        util::arena::frame frame(scratch);
        raw_type* re = scratch.template alloc_aligned<raw_type>(n).data();
        raw_type* im = scratch.template alloc_aligned<raw_type>(n).data();
        real peak = 0.0;
        for (const cplx& v : it.in)
            peak = std::max(std::max(peak, std::abs(v.real())),
                            std::abs(v.imag()));
        const real s = peak > 0.0 ? 0.2 / peak : 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            re[i] = transform::to_raw(it.in[i].real() * s);
            im[i] = transform::to_raw(it.in[i].imag() * s);
        }
        fft_.template forward_lanes<1>(re, im, re, im, scratch);
        simd::fixed::restore_lane<wfft::detail::reference_walk, raw_type,
                                  FracBits, 1>(
            re, im, it.out.data(), 0, n, static_cast<real>(n) / s);
        charge(it);
    }

    /// The fixed kernel is not instrumented internally (a node would not
    /// be); charge the structural op count computed at build time.
    void charge(const batch_item& it) const {
        counting::add_to_active(ops_per_forward_);
        if (it.stats != nullptr) {
            wfft::exec_stats& st = *it.stats;
            st.ops += ops_per_forward_;
            st.terms_total += fft_.combine_terms();
            st.terms_pruned_factor += fft_.pruned_terms();
            st.band_dropped = st.band_dropped || fft_.get_config().band_drop;
        }
    }

    /// Structural operation count of one forward(): Haar stage, the
    /// sub-FFT butterflies (with interstage halving scales), the pruned
    /// diagonal combine, and the two scaling passes of the adapter.
    static counting::op_counts count_ops(const transform& fft) {
        const auto& c = fft.get_config();
        const std::size_t n = c.n;
        const std::size_t half = n / 2;
        const auto m = static_cast<std::uint64_t>(half);
        const std::uint64_t stages = log2_exact(half);

        counting::op_counts ops;
        // Adapter scaling passes (in and out): one real mul per component.
        ops.muls += 4 * static_cast<std::uint64_t>(n);
        // Haar butterflies: complex add + sub per pair, halved in place.
        ops.adds += 4 * m;
        if (c.interstage_shift) ops.muls += 4 * m;
        // Sub-FFTs: (m/2)*log2(m) radix-2 butterflies, each one complex
        // multiply (4 mul + 2 add) plus complex +/- (4 adds), plus the
        // interstage halving of both outputs (4 muls).
        const std::uint64_t subffts = c.band_drop ? 1 : 2;
        const std::uint64_t butterflies = subffts * (m / 2) * stages;
        ops.muls += butterflies * (c.interstage_shift ? 8 : 4);
        ops.adds += butterflies * 6;
        // Combine: one complex multiply per surviving diagonal term, and
        // two complex adds per pair when the detail band contributes.
        const std::uint64_t live = static_cast<std::uint64_t>(
            fft.combine_terms() - fft.pruned_terms());
        ops.muls += live * 4;
        ops.adds += live * 2;
        if (!c.band_drop) ops.adds += 4 * m;
        return ops;
    }

    transform fft_;
    counting::op_counts ops_per_forward_;
};

}  // namespace qpsa::lomb
