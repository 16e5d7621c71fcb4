#include "qpsa/lomb/estimator_engines.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/burg.hpp"
#include "qpsa/lomb/lomb_direct.hpp"
#include "qpsa/lomb/resampled_psd.hpp"
#include "qpsa/simd/kernels.hpp"
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

std::size_t lane_batched_estimator::batch_width() const noexcept {
    return simd::kernels().lanes;
}

void lane_batched_estimator::estimate(std::span<const real> t,
                                      std::span<const real> x,
                                      const estimate_grid& grid,
                                      wfft::exec_stats* stats,
                                      util::arena& scratch,
                                      dsp::sampled_spectrum& out) const {
    estimate(t, x, grid, stats, scratch, out, nullptr);
}

void lane_batched_estimator::estimate(std::span<const real> t,
                                      std::span<const real> x,
                                      const estimate_grid& grid,
                                      wfft::exec_stats* stats,
                                      util::arena& scratch,
                                      dsp::sampled_spectrum& out,
                                      const hop_ctx* ctx) const {
    estimate_item it{t, x, grid, stats, nullptr, &out, ctx, true};
    run({&it, 1}, scratch, true);
}

void lane_batched_estimator::estimate_batched(std::span<estimate_item> items,
                                              util::arena& scratch) const {
    for (estimate_item& it : items) it.ok = true;
    run(items, scratch, false);
}

std::string burg_engine::name() const {
    return "burg-ar(order=" + std::to_string(order_) + ")";
}

void burg_engine::run(std::span<estimate_item> items, util::arena& scratch,
                      bool rethrow) const {
    util::arena::frame frame(scratch);
    struct fit {
        std::span<real> series;
        std::size_t order = 0;
        std::span<real> coef;
        real noise_var = 0.0;
        bool fitted = false;
    };
    thread_local std::vector<fit> fits;
    fits.assign(items.size(), {});

    // Prepare: uniform resampling (AR models need evenly spaced data),
    // then mean removal -- Burg assumes a zero-mean process.
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        fill_grid_freqs(it.grid, it.out->freq_hz);
        it.out->power.resize(it.grid.nout);
        std::span<real> series =
            resample_linear(it.t, it.x, resample_hz_, 8 * size(), scratch);
        const real mu = util::mean(series);
        for (real& v : series) v -= mu;
        counting::count_adds(2 * series.size());
        counting::count_divs(1);

        // Clamp the order so short windows stay inside burg_fit's
        // contract (checked here, where the single fit would throw).
        const std::size_t n = series.size();
        const std::size_t order = std::min(order_, n / 2 - 1);
        QPSA_EXPECTS(order >= 1);
        QPSA_EXPECTS(n > 2 * order);
        fits[i] = {series, order, scratch.alloc<real>(order)};
    });

    // Fit: windows sharing an order run the lattice one per lane (a lone
    // window runs the one-lane reference); each lane is bit-identical to
    // a single burg_fit.
    const simd::kernel_table& kt = simd::kernels();
    thread_local std::vector<std::size_t> group;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i].ok || fits[i].fitted) continue;
        group.assign(1, i);
        for (std::size_t j = i + 1; j < items.size() && group.size() < kt.lanes;
             ++j)
            if (items[j].ok && !fits[j].fitted &&
                fits[j].order == fits[i].order)
                group.push_back(j);
        const simd::kernel_table& k =
            group.size() == 1 ? *simd::kernels_for(simd::isa::scalar) : kt;
        QPSA_EXPECTS(k.lanes <= 8);
        const real* xs[8];
        std::size_t ns[8];
        std::size_t n_max = 0;
        for (std::size_t l = 0; l < k.lanes; ++l) {
            const fit& f = fits[group[l < group.size() ? l : 0]];
            xs[l] = f.series.data();
            ns[l] = f.series.size();
            n_max = std::max(n_max, ns[l]);
        }
        const std::size_t order = fits[i].order;
        util::arena::frame lattice(scratch);
        std::span<real> work =
            scratch.alloc<real>((2 * n_max + 2 * order + 1) * k.lanes);
        std::span<real> coef = scratch.alloc<real>(order * k.lanes);
        real noise[8];
        k.burg_lattice(xs, ns, order, work.data(), coef.data(), noise);
        for (std::size_t l = 0; l < group.size(); ++l) {
            fit& f = fits[group[l]];
            std::copy_n(coef.begin() + static_cast<std::ptrdiff_t>(l * order),
                        order, f.coef.begin());
            f.noise_var = noise[l];
            f.fitted = true;
        }
    }

    // Finish: the fit's tally, the model PSD on the grid, and the
    // Fast-Lomb output convention (normalized periodogram: PSD * N /
    // (2 sigma^2) of the analyzed window) so the Welch layer's
    // de-normalization applies uniformly across engine kinds.
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        const fit& f = fits[i];
        counting::add_to_active(dsp::burg_fit_tally(f.series.size(), f.order));
        dsp::burg_psd({f.coef, f.noise_var}, resample_hz_, it.out->freq_hz,
                      it.out->power);
        const real var = util::variance(it.x);
        QPSA_EXPECTS(var > 0.0);
        const real norm = static_cast<real>(it.x.size()) / (2.0 * var);
        for (real& p : it.out->power) p *= norm;
        counting::count_muls(it.out->power.size());
        counting::count_divs(1);
    });
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

void resampled_engine::run(std::span<estimate_item> items,
                           util::arena& scratch, bool rethrow) const {
    util::arena::frame frame(scratch);
    resampled_psd_options opt;
    opt.resample_hz = resample_hz_;
    opt.taper = taper_;
    opt.fft_size = size();
    struct periodogram {
        std::span<cplx> spec;
        std::span<real> power;
        std::size_t grid_n = 0;
    };
    thread_local std::vector<periodogram> pgs;
    thread_local std::vector<const cplx*> ins;
    thread_local std::vector<cplx*> outs;
    pgs.assign(items.size(), {});
    ins.clear();
    outs.clear();

    // Prepare: resample (anchored on the window's first beat, or on the
    // hop grid), detrend, taper and zero-pad each window.
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        periodogram& pg = pgs[i];
        pg.spec = scratch.alloc<cplx>(opt.fft_size);
        pg.power = scratch.alloc<real>(opt.fft_size / 2);
        util::arena::frame grid_frame(scratch);  // the resampled grid
        std::span<real> series =
            it.ctx != nullptr
                ? aligned_series(it.t, it.x, scratch)
                : resample_linear(it.t, it.x, opt.resample_hz, opt.fft_size,
                                  scratch);
        pg.grid_n = resampled_psd_prepare_series(series, opt, scratch, pg.spec);
        ins.push_back(pg.spec.data());
        outs.push_back(pg.spec.data());
    });

    // One lane-batched walk over the round's transforms, in place
    // (uncounted; each window attributes the memoized per-transform tally
    // below).
    if (!ins.empty()) fft_.forward_batched(ins, outs, scratch);

    // Finish: normalize into the one-sided PSD and map onto the grid.
    const real raw_df = opt.resample_hz / static_cast<real>(opt.fft_size);
    for_each_window(items, rethrow, [&](std::size_t i, estimate_item& it) {
        const periodogram& pg = pgs[i];
        counting::add_to_active(fft_.op_tally());
        resampled_psd_finish(pg.spec, pg.grid_n, opt, pg.power);
        map_uniform_psd_onto_grid(pg.power, raw_df, it.grid, it.x, *it.out);
    });
}

std::span<real> resampled_engine::aligned_series(std::span<const real> t,
                                                 std::span<const real> x,
                                                 util::arena& scratch) const {
    const std::size_t fft_size = size();
    const real rate = resample_hz_;

    auto g0 = static_cast<std::int64_t>(std::ceil(t.front() * rate));
    while (static_cast<real>(g0) / rate < t.front()) ++g0;
    while (static_cast<real>(g0 - 1) / rate >= t.front()) --g0;
    auto g1 = static_cast<std::int64_t>(std::floor(t.back() * rate));
    while (static_cast<real>(g1) / rate > t.back()) --g1;
    while (static_cast<real>(g1 + 1) / rate <= t.back()) ++g1;
    QPSA_EXPECTS(g1 >= g0);
    const std::size_t count =
        std::min<std::size_t>(fft_size,
                              static_cast<std::size_t>(g1 - g0) + 1);
    std::span<real> series = scratch.alloc<real>(count);

    std::uint64_t interpolated = 0;
    std::size_t j = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t g = g0 + static_cast<std::int64_t>(i);
        const real ti = static_cast<real>(g) / rate;
        while (j + 1 < t.size() && t[j + 1] < ti) ++j;
        if (j + 1 >= t.size()) {
            // Clamp (never fires for g <= g1 by construction, kept for
            // parity with the plain resampler); clamped points count
            // nothing.
            series[i] = x.back();
            continue;
        }
        const real span = t[j + 1] - t[j];
        const real u = span > 0.0 ? (ti - t[j]) / span : 0.0;
        series[i] = x[j] * (1.0 - u) + x[j + 1] * u;
        ++interpolated;
    }
    // Per interpolated point: 2 muls, 3 adds, 1 div, 1 compare.
    counting::add_to_active({.adds = 3 * interpolated,
                             .muls = 2 * interpolated,
                             .divs = interpolated,
                             .cmps = interpolated});
    return series;
}

}  // namespace qpsa::lomb
