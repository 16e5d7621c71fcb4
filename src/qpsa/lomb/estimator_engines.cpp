#include "qpsa/lomb/estimator_engines.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/burg.hpp"
#include "qpsa/lomb/hop_cache.hpp"
#include "qpsa/lomb/lomb_direct.hpp"
#include "qpsa/lomb/resampled_psd.hpp"
#include "qpsa/util/stats.hpp"

namespace qpsa::lomb {

namespace {

/// Fill the pipeline grid f_k = (k+1) * df into a reused vector.
void fill_grid_freqs(const estimate_grid& grid, std::vector<real>& f) {
    QPSA_EXPECTS(grid.df > 0.0 && grid.nout >= 1);
    f.resize(grid.nout);
    for (std::size_t k = 0; k < grid.nout; ++k)
        f[k] = static_cast<real>(k + 1) * grid.df;
}

}  // namespace

void map_uniform_psd_onto_grid(std::span<const real> power, real raw_df,
                               const estimate_grid& grid,
                               std::span<const real> x,
                               dsp::sampled_spectrum& out) {
    QPSA_EXPECTS(!power.empty() && raw_df > 0.0);
    const real var = util::variance(x);
    QPSA_EXPECTS(var > 0.0);
    const real norm = static_cast<real>(x.size()) / (2.0 * var);

    fill_grid_freqs(grid, out.freq_hz);
    out.power.resize(out.freq_hz.size());
    for (std::size_t k = 0; k < out.freq_hz.size(); ++k) {
        const real f = out.freq_hz[k];
        const real pos = f / raw_df;
        const auto lo = static_cast<std::size_t>(pos);
        real p;
        if (lo + 1 >= power.size()) {
            p = power.back();
        } else {
            const real u = pos - static_cast<real>(lo);
            p = power[lo] * (1.0 - u) + power[lo + 1] * u;
        }
        out.power[k] = p * norm;
    }
    counting::count_muls(3 * out.power.size());
    counting::count_adds(2 * out.power.size());
    counting::count_divs(out.power.size() + 1);
}

std::string burg_engine::name() const {
    return "burg-ar(order=" + std::to_string(order_) + ")";
}

void burg_engine::estimate(std::span<const real> t, std::span<const real> x,
                           const estimate_grid& grid, wfft::exec_stats* stats,
                           util::arena& scratch,
                           dsp::sampled_spectrum& out) const {
    estimator_stats_scope scope(stats);
    util::arena::frame frame(scratch);
    fill_grid_freqs(grid, out.freq_hz);
    out.power.resize(grid.nout);

    // Uniform resampling (AR models need evenly spaced data), then mean
    // removal -- Burg assumes a zero-mean process.
    std::span<real> series =
        resample_linear(t, x, resample_hz_, 8 * size(), scratch);
    const real mu = util::mean(series);
    for (real& v : series) v -= mu;
    counting::count_adds(2 * series.size());
    counting::count_divs(1);

    // Clamp the order so short windows stay inside burg_fit's contract.
    const std::size_t max_order = series.size() / 2 - 1;
    const dsp::burg_model model =
        dsp::burg_fit(series, std::min(order_, max_order), scratch);
    dsp::burg_psd(model, resample_hz_, out.freq_hz, out.power);

    // Match the Fast-Lomb output convention (normalized periodogram:
    // PSD * N / (2 sigma^2) of the analyzed window) so the Welch layer's
    // de-normalization applies uniformly across engine kinds.
    const real var = util::variance(x);
    QPSA_EXPECTS(var > 0.0);
    const real norm = static_cast<real>(x.size()) / (2.0 * var);
    for (real& p : out.power) p *= norm;
    counting::count_muls(out.power.size());
    counting::count_divs(1);
}

void direct_lomb_engine::estimate(std::span<const real> t,
                                  std::span<const real> x,
                                  const estimate_grid& grid,
                                  wfft::exec_stats* stats, util::arena&,
                                  dsp::sampled_spectrum& out) const {
    estimator_stats_scope scope(stats);
    fill_grid_freqs(grid, out.freq_hz);
    // lomb_direct already emits the normalized periodogram on its grid.
    // Copy (not move) into the caller's buffer so its steady-state
    // capacity survives the window.
    const dsp::sampled_spectrum s = lomb_direct(t, x, out.freq_hz);
    out.power.assign(s.power.begin(), s.power.end());
}

std::string resampled_engine::name() const {
    return "resampled(" + std::to_string(resample_hz_) + "Hz)";
}

void resampled_engine::estimate(std::span<const real> t,
                                std::span<const real> x,
                                const estimate_grid& grid,
                                wfft::exec_stats* stats, util::arena& scratch,
                                dsp::sampled_spectrum& out) const {
    estimator_stats_scope scope(stats);
    util::arena::frame frame(scratch);
    resampled_psd_options opt;
    opt.resample_hz = resample_hz_;
    opt.taper = taper_;
    opt.fft_size = size();
    std::span<real> power = scratch.alloc<real>(opt.fft_size / 2);
    resampled_psd(t, x, opt, fft_, scratch, power);

    const real raw_df =
        opt.resample_hz / static_cast<real>(opt.fft_size);
    map_uniform_psd_onto_grid(power, raw_df, grid, x, out);
}

void resampled_engine::estimate(std::span<const real> t,
                                std::span<const real> x,
                                const estimate_grid& grid,
                                wfft::exec_stats* stats, util::arena& scratch,
                                dsp::sampled_spectrum& out,
                                const hop_ctx* ctx) const {
    if (ctx == nullptr) {
        estimate(t, x, grid, stats, scratch, out);
        return;
    }
    estimator_stats_scope scope(stats);
    util::arena::frame frame(scratch);
    resampled_psd_options opt;
    opt.resample_hz = resample_hz_;
    opt.taper = taper_;
    opt.fft_size = size();
    const real rate = resample_hz_;

    // Aligned uniform grid: points sit at global indices g with
    // t_g = g / rate, covering [t.front(), t.back()].  A point's
    // interpolated value depends only on (g, its bracketing beat pair),
    // so the overlap range of consecutive windows interpolates to
    // bitwise-equal series values -- which is what the series cache
    // replays.  The float ceil/floor can land one index off; the adjust
    // loops re-derive the bounds as pure functions of (t, rate).
    auto g0 = static_cast<std::int64_t>(std::ceil(t.front() * rate));
    while (static_cast<real>(g0) / rate < t.front()) ++g0;
    while (static_cast<real>(g0 - 1) / rate >= t.front()) --g0;
    auto g1 = static_cast<std::int64_t>(std::floor(t.back() * rate));
    while (static_cast<real>(g1) / rate > t.back()) --g1;
    while (static_cast<real>(g1 + 1) / rate <= t.back()) ++g1;
    QPSA_EXPECTS(g1 >= g0);
    const std::size_t count =
        std::min<std::size_t>(opt.fft_size,
                              static_cast<std::size_t>(g1 - g0) + 1);
    std::span<real> series = scratch.alloc<real>(count);

    hop_series_entry* entry =
        ctx->cache != nullptr ? &ctx->cache->series() : nullptr;
    const bool hit = entry != nullptr && entry->valid &&
                     entry->window_index == ctx->window_index;
    if (entry != nullptr) {
        if (hit)
            ctx->cache->count_hit();
        else
            ctx->cache->count_miss();
    }

    std::uint64_t cached_points = 0;
    std::uint64_t interpolated = 0;
    std::size_t clamp_from = count;  // first clamped (uncacheable) point
    std::size_t j = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t g = g0 + static_cast<std::int64_t>(i);
        const real ti = static_cast<real>(g) / rate;
        while (j + 1 < t.size() && t[j + 1] < ti) ++j;
        if (hit && g >= entry->g_start &&
            g < entry->g_start +
                    static_cast<std::int64_t>(entry->values.size())) {
            series[i] =
                entry->values[static_cast<std::size_t>(g - entry->g_start)];
            ++cached_points;
            continue;
        }
        if (j + 1 >= t.size()) {
            // Clamp (never fires for g <= g1 by construction, kept for
            // parity with the plain resampler); clamped points count
            // nothing and are never cached.
            series[i] = x.back();
            if (clamp_from == count) clamp_from = i;
            continue;
        }
        const real span = t[j + 1] - t[j];
        const real u = span > 0.0 ? (ti - t[j]) / span : 0.0;
        series[i] = x[j] * (1.0 - u) + x[j + 1] * u;
        ++interpolated;
    }
    // Per interpolated point: 2 muls, 3 adds, 1 div, 1 compare.  Every
    // cached point replaced one interpolation, so it is priced the same
    // unless the context asks for the real (post-reuse) counts.
    const std::uint64_t priced =
        interpolated + (ctx->count_actual_ops ? 0 : cached_points);
    counting::add_to_active({.adds = 3 * priced,
                             .muls = 2 * priced,
                             .divs = priced,
                             .cmps = priced});

    // (Re)build the overlap range for window m+1: points at/after its
    // first beat f interpolate from beat pairs both windows contain, so
    // their values replay bitwise.  Consuming before rebuilding lets the
    // single entry storage serve both roles.
    if (entry != nullptr) {
        entry->valid = false;
        entry->window_index = ctx->window_index + 1;
        entry->values.clear();
        entry->g_start = 0;
        const real mid = ctx->window_start + ctx->hop_seconds;
        std::size_t fs = 0;
        while (fs < t.size() && t[fs] < mid) ++fs;
        if (fs < t.size()) {
            const real f = t[fs];
            auto gc = static_cast<std::int64_t>(std::ceil(f * rate));
            while (static_cast<real>(gc) / rate < f) ++gc;
            while (static_cast<real>(gc - 1) / rate >= f) --gc;
            const std::int64_t g_last =
                std::min(g0 + static_cast<std::int64_t>(clamp_from) - 1,
                         g0 + static_cast<std::int64_t>(count) - 1);
            if (gc >= g0 && gc <= g_last) {
                entry->g_start = gc;
                for (std::int64_t g = gc; g <= g_last; ++g)
                    entry->values.push_back(
                        series[static_cast<std::size_t>(g - g0)]);
            }
        }
        entry->valid = true;
    }

    // Detrend + taper + transform + normalize + map: per window, exactly
    // as the plain path runs them (the series is the only cached stage).
    std::span<cplx> buf = scratch.alloc<cplx>(opt.fft_size);
    const std::size_t grid_n = resampled_psd_prepare_series(series, opt, buf);
    std::span<cplx> spec = scratch.alloc<cplx>(opt.fft_size);
    fft_.forward(buf, spec, scratch);
    std::span<real> power = scratch.alloc<real>(opt.fft_size / 2);
    resampled_psd_finish(spec, grid_n, opt, power);

    const real raw_df = opt.resample_hz / static_cast<real>(opt.fft_size);
    map_uniform_psd_onto_grid(power, raw_df, grid, x, out);
}

}  // namespace qpsa::lomb
