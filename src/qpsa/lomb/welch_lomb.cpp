#include "qpsa/lomb/welch_lomb.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/lomb/workspace.hpp"
#include "qpsa/util/stats.hpp"

namespace qpsa::lomb {

namespace {

void accumulate(lomb_breakdown& into, const lomb_breakdown& seg) {
    into.moments += seg.moments;
    into.extirpolation += seg.extirpolation;
    into.fft += seg.fft;
    into.combine += seg.combine;
    into.fft_stats += seg.fft_stats;
}

}  // namespace

welch_result welch_lomb(std::span<const real> beat_times, std::span<const real> rr,
                        const fft_engine& engine, const welch_options& opt,
                        const weight_transform* weights) {
    QPSA_EXPECTS(beat_times.size() == rr.size());
    QPSA_EXPECTS(beat_times.size() >= opt.min_beats);
    QPSA_EXPECTS(opt.overlap >= 0.0 && opt.overlap < 1.0);
    QPSA_EXPECTS(opt.window_seconds > 0.0);

    welch_result out;
    const real hop = opt.window_seconds * (1.0 - opt.overlap);
    const real t_begin = beat_times.front();
    const real t_end = beat_times.back();

    fast_lomb_options lopt = opt.lomb;
    lopt.span_override = opt.window_seconds;  // common grid for all segments
    // Fix the grid length from the requested band edge: df = 1/(W*ofac).
    lopt.nout_override = static_cast<std::size_t>(
        std::ceil(opt.max_freq_hz * opt.window_seconds * lopt.ofac));

    std::vector<real> seg_t;
    std::vector<real> seg_x;
    workspace ws;
    std::size_t lo = 0;

    for (real t0 = t_begin; t0 + opt.window_seconds <= t_end + 1e-9; t0 += hop) {
        const real t1 = t0 + opt.window_seconds;
        while (lo < beat_times.size() && beat_times[lo] < t0) ++lo;
        std::size_t hi = lo;
        while (hi < beat_times.size() && beat_times[hi] < t1) ++hi;
        const std::size_t count = hi - lo;
        if (count < opt.min_beats) {
            ++out.segments_skipped;
            continue;
        }

        seg_t.assign(beat_times.begin() + static_cast<std::ptrdiff_t>(lo),
                     beat_times.begin() + static_cast<std::ptrdiff_t>(hi));
        seg_x.assign(rr.begin() + static_cast<std::ptrdiff_t>(lo),
                     rr.begin() + static_cast<std::ptrdiff_t>(hi));

        // Normalize the segment, then taper at the uneven beat instants.
        const real mu = util::mean(seg_x);
        const real sigma2 = util::variance(seg_x);
        if (sigma2 <= 0.0) {
            ++out.segments_skipped;
            continue;
        }
        const real inv_sigma = 1.0 / std::sqrt(sigma2);
        for (std::size_t j = 0; j < seg_x.size(); ++j) {
            const real u =
                std::clamp((seg_t[j] - t0) / opt.window_seconds, 0.0, 1.0);
            seg_x[j] = (seg_x[j] - mu) * inv_sigma * dsp::window_value(opt.taper, u);
        }
        counting::count_adds(2 * seg_x.size());
        counting::count_muls(2 * seg_x.size());
        counting::count_divs(1);
        counting::count_sqrts(1);

        lomb_breakdown bd;
        lomb_result seg;
        try {
            fast_lomb(seg_t, seg_x, engine, lopt, ws, seg, &bd, nullptr,
                      weights);
        } catch (const contract_error&) {
            ++out.segments_skipped;
            continue;
        }
        accumulate(out.ops, bd);

        // De-normalize: the paper's 2*sigma^2/N factor restores the
        // segment's absolute variance scale before averaging.
        const real denorm =
            2.0 * sigma2 / static_cast<real>(seg.n_samples);
        for (real& p : seg.spectrum.power) p *= denorm;
        counting::count_muls(seg.spectrum.power.size() + 1);
        counting::count_divs(1);

        out.segment_start.push_back(t0);
        out.segments.push_back(std::move(seg.spectrum));
        ++out.segments_used;
    }

    QPSA_ENSURES(out.segments_used > 0);

    // Average across segments (grids are identical by construction).
    const auto& first = out.segments.front();
    out.averaged.freq_hz = first.freq_hz;
    out.averaged.power.assign(first.power.size(), 0.0);
    for (const auto& seg : out.segments) {
        QPSA_EXPECTS(seg.power.size() == out.averaged.power.size());
        for (std::size_t i = 0; i < seg.power.size(); ++i)
            out.averaged.power[i] += seg.power[i];
    }
    const real inv = 1.0 / static_cast<real>(out.segments.size());
    for (real& p : out.averaged.power) p *= inv;
    return out;
}

}  // namespace qpsa::lomb
