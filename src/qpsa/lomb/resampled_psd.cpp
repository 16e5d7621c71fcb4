#include "qpsa/lomb/resampled_psd.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/util/stats.hpp"

namespace qpsa::lomb {

namespace {

void resample_linear_into(std::span<const real> t, std::span<const real> x,
                          real rate_hz, std::span<real> out) {
    const real t0 = t.front();
    const std::size_t count = out.size();
    std::size_t j = 0;
    std::uint64_t interpolated = 0;  // clamped points count nothing
    for (std::size_t i = 0; i < count; ++i) {
        const real ti = t0 + static_cast<real>(i) / rate_hz;
        while (j + 1 < t.size() && t[j + 1] < ti) ++j;
        if (j + 1 >= t.size()) {
            out[i] = x.back();
            continue;
        }
        const real span = t[j + 1] - t[j];
        const real u = span > 0.0 ? (ti - t[j]) / span : 0.0;
        out[i] = x[j] * (1.0 - u) + x[j + 1] * u;
        ++interpolated;
    }
    // Per interpolated point: 2 muls, 3 adds, 1 div, 1 compare.
    counting::add_to_active({.adds = 3 * interpolated,
                             .muls = 2 * interpolated,
                             .divs = interpolated,
                             .cmps = interpolated});
}

std::size_t resample_count(std::span<const real> t, std::span<const real> x,
                           real rate_hz, std::size_t max_points) {
    QPSA_EXPECTS(t.size() == x.size());
    QPSA_EXPECTS(t.size() >= 2);
    QPSA_EXPECTS(rate_hz > 0.0);
    return std::min<std::size_t>(
        max_points,
        static_cast<std::size_t>((t.back() - t.front()) * rate_hz) + 1);
}

}  // namespace

std::vector<real> resample_linear(std::span<const real> t,
                                  std::span<const real> x, real rate_hz,
                                  std::size_t max_points) {
    std::vector<real> out(resample_count(t, x, rate_hz, max_points));
    resample_linear_into(t, x, rate_hz, out);
    return out;
}

std::span<real> resample_linear(std::span<const real> t,
                                std::span<const real> x, real rate_hz,
                                std::size_t max_points, util::arena& scratch) {
    std::span<real> out =
        scratch.alloc<real>(resample_count(t, x, rate_hz, max_points));
    resample_linear_into(t, x, rate_hz, out);
    return out;
}

std::size_t resampled_psd_prepare_series(std::span<real> grid,
                                         const resampled_psd_options& opt,
                                         util::arena& scratch,
                                         std::span<cplx> in) {
    QPSA_EXPECTS(grid.size() >= 8);
    QPSA_EXPECTS(grid.size() <= opt.fft_size);
    QPSA_EXPECTS(in.size() == opt.fft_size);

    // Detrend (remove mean), taper, zero-pad to the transform size.  The
    // taper comes from the arena's memoized table of this length.
    const std::span<const real> taper =
        dsp::window_table(opt.taper, grid.size(), scratch);
    const real mu = util::mean(grid);
    for (std::size_t i = 0; i < grid.size(); ++i)
        grid[i] = (grid[i] - mu) * taper[i];
    counting::count_adds(grid.size());
    counting::count_muls(grid.size());

    for (std::size_t i = 0; i < grid.size(); ++i) in[i] = cplx{grid[i], 0.0};
    for (std::size_t i = grid.size(); i < opt.fft_size; ++i)
        in[i] = cplx{0.0, 0.0};
    return grid.size();
}

std::size_t resampled_psd_prepare(std::span<const real> t,
                                  std::span<const real> x,
                                  const resampled_psd_options& opt,
                                  util::arena& scratch, std::span<cplx> in) {
    std::span<real> grid =
        resample_linear(t, x, opt.resample_hz, opt.fft_size, scratch);
    return resampled_psd_prepare_series(grid, opt, scratch, in);
}

void resampled_psd_finish(std::span<const cplx> spec, std::size_t grid_n,
                          const resampled_psd_options& opt,
                          std::span<real> out_power) {
    QPSA_EXPECTS(out_power.size() == opt.fft_size / 2);
    // One-sided PSD up to Nyquist, normalized by the taper power gain and
    // the effective record length.
    const real norm = 2.0 / (opt.resample_hz * static_cast<real>(grid_n) *
                             dsp::window_power_gain(opt.taper));
    for (std::size_t k = 0; k < out_power.size(); ++k)
        out_power[k] = sqr_mag(spec[k]) * norm;
    counting::count_muls(3 * out_power.size());
    counting::count_adds(out_power.size());
}

void resampled_psd(std::span<const real> t, std::span<const real> x,
                   const resampled_psd_options& opt,
                   const dsp::fft_split_radix& fft, util::arena& scratch,
                   std::span<real> out_power) {
    QPSA_EXPECTS(is_pow2(opt.fft_size));
    QPSA_EXPECTS(fft.size() == opt.fft_size);
    QPSA_EXPECTS(out_power.size() == opt.fft_size / 2);
    util::arena::frame frame(scratch);
    std::span<cplx> buf = scratch.alloc<cplx>(opt.fft_size);
    const std::size_t grid_n = resampled_psd_prepare(t, x, opt, scratch, buf);
    std::span<cplx> spec = scratch.alloc<cplx>(opt.fft_size);
    fft.forward(buf, spec);
    resampled_psd_finish(spec, grid_n, opt, out_power);
}

dsp::sampled_spectrum resampled_psd(std::span<const real> t,
                                    std::span<const real> x,
                                    const resampled_psd_options& opt) {
    QPSA_EXPECTS(is_pow2(opt.fft_size));
    // Convenience wrapper for one-shot callers (ablation benches, tools):
    // builds a private transform and arena per call.  Hot paths hold both
    // and call the core above.
    const dsp::fft_split_radix fft(opt.fft_size);
    util::arena scratch;
    dsp::sampled_spectrum out;
    const std::size_t half = opt.fft_size / 2;
    out.power.resize(half);
    resampled_psd(t, x, opt, fft, scratch, out.power);

    const real df = opt.resample_hz / static_cast<real>(opt.fft_size);
    out.freq_hz.resize(half);
    for (std::size_t k = 0; k < half; ++k)
        out.freq_hz[k] = static_cast<real>(k) * df;
    return out;
}

}  // namespace qpsa::lomb
