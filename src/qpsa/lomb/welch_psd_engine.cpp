#include "qpsa/lomb/welch_psd_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qpsa/core/engine_registry.hpp"
#include "qpsa/core/psa_config.hpp"
#include "qpsa/counting/op_counter.hpp"
#include "qpsa/lomb/hop_cache.hpp"
#include "qpsa/lomb/resampled_psd.hpp"

namespace qpsa::lomb {

std::string welch_psd_engine::name() const {
    return "welch(" + std::to_string(resample_hz_) + "Hz," +
           std::to_string(segment_seconds_) + "s)";
}

void welch_psd_engine::estimate(std::span<const real> t,
                                std::span<const real> x,
                                const estimate_grid& grid,
                                wfft::exec_stats* stats,
                                util::arena& scratch,
                                dsp::sampled_spectrum& out) const {
    QPSA_EXPECTS(grid.df > 0.0 && grid.nout >= 1);
    estimator_stats_scope scope(stats);
    util::arena::frame frame(scratch);

    resampled_psd_options seg_opt;
    seg_opt.resample_hz = resample_hz_;
    seg_opt.taper = taper_;
    seg_opt.fft_size = size();

    // Welch segmentation by time, like welch_lomb: segments of
    // segment_seconds_ advanced by the overlap-derived hop.  A segment
    // must hold enough beats (and span) for the per-segment resampler;
    // too-sparse segments are skipped.  Short windows degenerate to a
    // single whole-window segment, i.e. the plain resampled estimator.
    const real t0 = t.front();
    const real t_end = t.back();
    const real hop = segment_seconds_ * (1.0 - segment_overlap_);
    constexpr std::size_t min_seg_beats = 8;

    // Summed per-segment periodograms; the arena-threaded resampled_psd
    // core always emits fft_size / 2 one-sided bins, so the accumulator
    // and the per-segment buffer both come straight from the caller's
    // arena and the whole window is allocation-free.
    std::span<real> avg = scratch.alloc<real>(seg_opt.fft_size / 2);
    std::span<real> seg = scratch.alloc<real>(seg_opt.fft_size / 2);
    std::fill(avg.begin(), avg.end(), 0.0);
    std::size_t segments = 0;
    std::size_t begin = 0;  // segments advance monotonically in time
    for (real start = t0; start + segment_seconds_ <= t_end + 1e-9;
         start += hop) {
        const real stop = start + segment_seconds_;
        while (begin < t.size() && t[begin] < start) ++begin;
        std::size_t end = begin;
        while (end < t.size() && t[end] <= stop) ++end;
        const std::size_t count = end - begin;
        if (count < min_seg_beats) continue;
        if ((t[end - 1] - t[begin]) * resample_hz_ < 8.0) continue;
        resampled_psd(t.subspan(begin, count), x.subspan(begin, count),
                      seg_opt, fft_, scratch, seg);
        for (std::size_t k = 0; k < avg.size(); ++k) avg[k] += seg[k];
        ++segments;
    }
    counting::count_adds(segments * avg.size());  // the segment sums
    if (segments == 0) {
        resampled_psd(t, x, seg_opt, fft_, scratch, avg);
        segments = 1;
    }
    const real inv_segments = 1.0 / static_cast<real>(segments);
    for (real& p : avg) p *= inv_segments;
    counting::count_divs(1);
    counting::count_muls(avg.size());

    // Averaged uniform-rate PSD onto the pipeline grid, through the
    // normalization shared with the resampled engine.
    const real raw_df = resample_hz_ / static_cast<real>(seg_opt.fft_size);
    map_uniform_psd_onto_grid(avg, raw_df, grid, x, out);
}

void welch_psd_engine::estimate(std::span<const real> t,
                                std::span<const real> x,
                                const estimate_grid& grid,
                                wfft::exec_stats* stats,
                                util::arena& scratch,
                                dsp::sampled_spectrum& out,
                                const hop_ctx* ctx) const {
    if (ctx == nullptr) {
        estimate(t, x, grid, stats, scratch, out);
        return;
    }
    QPSA_EXPECTS(grid.df > 0.0 && grid.nout >= 1);
    estimator_stats_scope scope(stats);
    util::arena::frame frame(scratch);

    resampled_psd_options seg_opt;
    seg_opt.resample_hz = resample_hz_;
    seg_opt.taper = taper_;
    seg_opt.fft_size = size();

    // Hop-aligned segmentation: segment k covers [k * seg_hop, k * seg_hop
    // + segment_seconds] on the *global* time axis.  Its beat subset --
    // and therefore its periodogram (the per-segment resampler anchors on
    // the subset's own first beat) -- is a pure function of k, so two
    // windows sharing segment k compute bitwise-equal periodograms and
    // the cache can hand the later window the earlier one's result.
    const real seg_hop = segment_seconds_ * (1.0 - segment_overlap_);
    QPSA_EXPECTS(seg_hop > 0.0);
    constexpr std::size_t min_seg_beats = 8;
    const real w0 = ctx->window_start;
    const real w1 = w0 + ctx->window_seconds;

    auto k0 = static_cast<std::int64_t>(std::ceil((w0 - 1e-9) / seg_hop));
    while (static_cast<real>(k0) * seg_hop < w0 - 1e-9) ++k0;
    while (static_cast<real>(k0 - 1) * seg_hop >= w0 - 1e-9) --k0;

    // One task per surviving segment, in segment order; misses prepare
    // their transform input now and ride one batched walk below.
    struct seg_task {
        std::int64_t k = 0;
        hop_segment_entry* entry = nullptr;  // hit: cached periodogram
        std::span<cplx> spec;                // miss: transform output
        std::span<real> power;               // miss: finished periodogram
        std::size_t grid_n = 0;
        counting::op_counts ops;  // miss: scratch-equivalent tally
    };
    thread_local std::vector<seg_task> tasks;
    thread_local std::vector<const cplx*> fft_ins;
    thread_local std::vector<cplx*> fft_outs;
    tasks.clear();
    fft_ins.clear();
    fft_outs.clear();

    const std::size_t half = seg_opt.fft_size / 2;
    std::span<real> avg = scratch.alloc<real>(half);
    std::fill(avg.begin(), avg.end(), 0.0);

    std::size_t begin = 0;  // segments advance monotonically in time
    for (std::int64_t k = k0;; ++k) {
        const real start = static_cast<real>(k) * seg_hop;
        const real stop = start + segment_seconds_;
        if (stop > w1 + 1e-9) break;
        while (begin < t.size() && t[begin] < start) ++begin;
        std::size_t end = begin;
        while (end < t.size() && t[end] <= stop) ++end;
        const std::size_t count = end - begin;
        if (count < min_seg_beats) continue;
        if ((t[end - 1] - t[begin]) * resample_hz_ < 8.0) continue;

        seg_task task;
        task.k = k;
        if (ctx->cache != nullptr) {
            hop_segment_entry& e = ctx->cache->segment_slot(k);
            if (e.valid && e.seg_index == k && e.power.size() == half) {
                task.entry = &e;
                ctx->cache->count_hit();
            } else {
                ctx->cache->count_miss();
            }
        }
        if (task.entry == nullptr) {
            counting::count_scope seg_scope(task.ops);
            std::span<cplx> in = scratch.alloc<cplx>(seg_opt.fft_size);
            task.spec = scratch.alloc<cplx>(seg_opt.fft_size);
            task.power = scratch.alloc<real>(half);
            task.grid_n =
                resampled_psd_prepare(t.subspan(begin, count),
                                      x.subspan(begin, count), seg_opt,
                                      scratch, in);
            fft_ins.push_back(in.data());
            fft_outs.push_back(task.spec.data());
        }
        tasks.push_back(task);
    }

    // One lane-batched walk over every miss transform (bit-identical per
    // item to sequential forwards; the memoized per-transform tally is
    // attributed per segment below, as split_radix_engine does).
    if (!fft_ins.empty()) fft_.forward_batched(fft_ins, fft_outs, scratch);

    std::size_t segments = 0;
    for (seg_task& task : tasks) {
        std::span<const real> power;
        if (task.entry != nullptr) {
            if (!ctx->count_actual_ops)
                counting::add_to_active(task.entry->ops);
            power = task.entry->power;
        } else {
            {
                // Nested scope: the fft tally and the finish ops land in
                // task.ops AND every outer sink, exactly once each (the
                // prepare phase counted the same way above).
                counting::count_scope seg_scope(task.ops);
                counting::add_to_active(fft_.op_tally());
                resampled_psd_finish(task.spec, task.grid_n, seg_opt,
                                     task.power);
            }
            power = task.power;
            if (ctx->cache != nullptr) {
                hop_segment_entry& e = ctx->cache->segment_slot(task.k);
                e.seg_index = task.k;
                e.power.assign(power.begin(), power.end());
                e.ops = task.ops;
                e.valid = true;
            }
        }
        // Average in original segment order -- hits and misses interleave
        // exactly as a scratch run would have summed them.
        for (std::size_t i = 0; i < half; ++i) avg[i] += power[i];
        ++segments;
    }
    counting::count_adds(segments * half);  // the segment sums
    if (segments == 0) {
        // Degenerate window: one whole-window segment, i.e. the plain
        // resampled estimator (matches the unaligned path's fallback).
        resampled_psd(t, x, seg_opt, fft_, scratch, avg);
        segments = 1;
    }
    const real inv_segments = 1.0 / static_cast<real>(segments);
    for (real& p : avg) p *= inv_segments;
    counting::count_divs(1);
    counting::count_muls(half);

    const real raw_df = resample_hz_ / static_cast<real>(seg_opt.fft_size);
    map_uniform_psd_onto_grid(avg, raw_df, grid, x, out);
}

void register_welch_engine(core::engine_registry& reg) {
    reg.register_spec<core::welch_spec>([](const core::psa_config& cfg) {
        const auto& s = std::get<core::welch_spec>(cfg.spec);
        return std::shared_ptr<const fft_engine>(
            std::make_shared<const welch_psd_engine>(
                cfg.lomb.mesh_size, s.resample_hz, s.segment_seconds,
                s.segment_overlap, s.taper));
    });
}

}  // namespace qpsa::lomb
