#include "qpsa/lomb/welch_psd_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qpsa/core/engine_registry.hpp"
#include "qpsa/core/psa_config.hpp"
#include "qpsa/counting/op_counter.hpp"
#include "qpsa/lomb/resampled_psd.hpp"

namespace qpsa::lomb {

std::string welch_psd_engine::name() const {
    return "welch(" + std::to_string(resample_hz_) + "Hz," +
           std::to_string(segment_seconds_) + "s)";
}

void welch_psd_engine::run(std::span<estimate_item> items,
                           util::arena& scratch, bool rethrow) const {
    util::arena::frame frame(scratch);
    resampled_psd_options seg_opt;
    seg_opt.resample_hz = resample_hz_;
    seg_opt.taper = taper_;
    seg_opt.fft_size = size();
    const std::size_t half = seg_opt.fft_size / 2;
    const real seg_hop = segment_seconds_ * (1.0 - segment_overlap_);
    constexpr std::size_t min_seg_beats = 8;

    // One task per surviving segment, in segment order within its window;
    // each prepares its transform input in phase one and rides one
    // batched walk with every other window's segments.
    struct seg_task {
        std::span<cplx> spec;  // transform input, then (in place) output
        std::size_t grid_n = 0;
    };
    struct window_tasks {
        std::size_t first = 0;
        std::size_t count = 0;
        /// No segment survived: the one task is the whole window, i.e. the
        /// plain resampled estimator.
        bool whole = false;
    };
    thread_local std::vector<seg_task> tasks;
    thread_local std::vector<window_tasks> windows;
    thread_local std::vector<const cplx*> fft_ins;
    thread_local std::vector<cplx*> fft_outs;
    tasks.clear();
    windows.assign(items.size(), {});
    fft_ins.clear();
    fft_outs.clear();

    const auto queue_segment = [&](std::span<const real> t,
                                   std::span<const real> x) {
        seg_task task;
        task.spec = scratch.alloc<cplx>(seg_opt.fft_size);
        {
            util::arena::frame series(scratch);  // the resampled grid
            task.grid_n =
                resampled_psd_prepare(t, x, seg_opt, scratch, task.spec);
        }
        fft_ins.push_back(task.spec.data());
        fft_outs.push_back(task.spec.data());
        tasks.push_back(task);
    };

    // Phase one: segmentation and segment prepares.
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        QPSA_EXPECTS(it.grid.df > 0.0 && it.grid.nout >= 1);
        const std::span<const real> t = it.t;
        const std::span<const real> x = it.x;
        const hop_ctx* ctx = it.ctx;
        window_tasks& w = windows[i];
        w.first = tasks.size();
        // A segment must hold enough beats (and span) for the per-segment
        // resampler; too-sparse segments are skipped.
        const auto bounds = [&](real start, real stop, std::size_t& begin,
                                std::size_t& end) {
            while (begin < t.size() && t[begin] < start) ++begin;
            end = begin;
            while (end < t.size() && t[end] <= stop) ++end;
            if (end - begin < min_seg_beats) return false;
            return !((t[end - 1] - t[begin]) * resample_hz_ < 8.0);
        };
        std::size_t begin = 0;  // segments advance monotonically in time
        std::size_t end = 0;
        if (ctx == nullptr) {
            // Segmentation by time, like welch_lomb: segments of
            // segment_seconds_ advanced by the overlap-derived hop from
            // the window's first beat.
            for (real start = t.front();
                 start + segment_seconds_ <= t.back() + 1e-9; start += seg_hop)
                if (bounds(start, start + segment_seconds_, begin, end))
                    queue_segment(t.subspan(begin, end - begin),
                                  x.subspan(begin, end - begin));
        } else {
            // Hop-aligned segmentation: segment k covers [k * seg_hop,
            // k * seg_hop + segment_seconds] on the *global* time axis.
            // Its beat subset -- and therefore its periodogram (the
            // per-segment resampler anchors on the subset's own first
            // beat) -- is a pure function of k, so two windows sharing
            // segment k compute bitwise-equal periodograms.
            QPSA_EXPECTS(seg_hop > 0.0);
            const real w0 = ctx->window_start;
            const real w1 = w0 + ctx->window_seconds;
            auto k0 = static_cast<std::int64_t>(std::ceil((w0 - 1e-9) / seg_hop));
            while (static_cast<real>(k0) * seg_hop < w0 - 1e-9) ++k0;
            while (static_cast<real>(k0 - 1) * seg_hop >= w0 - 1e-9) --k0;
            for (std::int64_t k = k0;; ++k) {
                const real start = static_cast<real>(k) * seg_hop;
                const real stop = start + segment_seconds_;
                if (stop > w1 + 1e-9) break;
                if (bounds(start, stop, begin, end))
                    queue_segment(t.subspan(begin, end - begin),
                                  x.subspan(begin, end - begin));
            }
        }
        if (tasks.size() == w.first) {
            // Degenerate window: one whole-window segment, i.e. the plain
            // resampled estimator (throws for a too-short window).
            queue_segment(t, x);
            w.whole = true;
        }
        w.count = tasks.size() - w.first;
    });

    // Phase two: one lane-batched walk over every segment transform of
    // the round, in place (bit-identical per item to sequential forwards;
    // the memoized per-transform tally is attributed per segment below,
    // as split_radix_engine does).
    if (!fft_ins.empty()) fft_.forward_batched(fft_ins, fft_outs, scratch);

    // Phase three: finish each segment, average in segment order, map.
    const real raw_df = resample_hz_ / static_cast<real>(seg_opt.fft_size);
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        const window_tasks& w = windows[i];
        std::span<real> avg = scratch.alloc<real>(half);
        std::span<real> seg = scratch.alloc<real>(half);
        std::fill(avg.begin(), avg.end(), 0.0);
        std::size_t segments = 0;
        for (std::size_t j = w.first; j < w.first + w.count; ++j) {
            const seg_task& task = tasks[j];
            counting::add_to_active(fft_.op_tally());
            resampled_psd_finish(task.spec, task.grid_n, seg_opt, seg);
            if (w.whole) {
                std::copy(seg.begin(), seg.end(), avg.begin());
                continue;
            }
            for (std::size_t b = 0; b < half; ++b) avg[b] += seg[b];
            ++segments;
        }
        counting::count_adds(segments * half);  // the segment sums
        if (w.whole) segments = 1;
        const real inv_segments = 1.0 / static_cast<real>(segments);
        for (real& p : avg) p *= inv_segments;
        counting::count_divs(1);
        counting::count_muls(half);

        // Averaged uniform-rate PSD onto the pipeline grid, through the
        // normalization shared with the resampled engine.
        map_uniform_psd_onto_grid(avg, raw_df, it.grid, it.x, *it.out);
    });
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
