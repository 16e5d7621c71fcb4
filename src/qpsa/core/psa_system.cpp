#include "qpsa/core/psa_system.hpp"

#include <sstream>

#include "qpsa/core/engine_registry.hpp"

namespace qpsa::core {

namespace {

psa_config base_config(std::size_t mesh) {
    psa_config c;
    c.lomb.mesh_size = mesh;
    return c;
}

}  // namespace

psa_config psa_config::conventional(std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = conventional_spec{};
    c.validate();
    return c;
}

psa_config psa_config::proposed(const wfft::plan& p) {
    psa_config c = base_config(p.n);
    c.spec = wavelet_spec{p};
    c.validate();
    return c;
}

psa_config psa_config::fixed_wavelet(fixed_format format, std::size_t mesh,
                                     bool band_drop, real twiddle_fraction) {
    psa_config c = base_config(mesh);
    c.spec = fixed_wavelet_spec{format, band_drop, twiddle_fraction};
    c.validate();
    return c;
}

psa_config psa_config::burg_ar(std::size_t order, std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = burg_spec{order, 4.0};
    c.validate();
    return c;
}

psa_config psa_config::direct_lomb(std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = direct_lomb_spec{};
    c.validate();
    return c;
}

psa_config psa_config::resampled(real resample_hz, std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = resampled_spec{resample_hz, dsp::window_kind::hann};
    c.validate();
    return c;
}

psa_config psa_config::welch(real resample_hz, real segment_seconds,
                             std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = welch_spec{resample_hz, segment_seconds, 0.5,
                        dsp::window_kind::hann};
    c.validate();
    return c;
}

psa_config psa_config::fftw(std::size_t mesh) {
    psa_config c = base_config(mesh);
    c.spec = fftw_spec{};
    c.validate();
    return c;
}

void psa_config::validate() const {
    QPSA_EXPECTS(lomb.mesh_size >= 64 && is_pow2(lomb.mesh_size));
    QPSA_EXPECTS(window_seconds > 10.0);
    QPSA_EXPECTS(overlap >= 0.0 && overlap < 1.0);
    // Hop-aligned arithmetic anchors positions on the global hop grid,
    // which requires a data-independent frequency span.
    if (lomb.hop_aligned) QPSA_EXPECTS(lomb.span_override > 0.0);
    std::visit(
        overloaded{
            [](const conventional_spec&) {},
            [&](const wavelet_spec& s) {
                s.plan.validate();
                QPSA_EXPECTS(s.plan.n == lomb.mesh_size);
            },
            [](const fixed_wavelet_spec& s) {
                QPSA_EXPECTS(s.twiddle_fraction >= 0.0 &&
                             s.twiddle_fraction < 1.0);
            },
            [&](const burg_spec& s) {
                QPSA_EXPECTS(s.order >= 2);
                QPSA_EXPECTS(s.resample_hz > 0.0);
                QPSA_EXPECTS(2 * s.order <
                             static_cast<std::size_t>(window_seconds *
                                                      s.resample_hz));
            },
            [](const direct_lomb_spec&) {},
            [](const resampled_spec& s) { QPSA_EXPECTS(s.resample_hz > 0.0); },
            [&](const welch_spec& s) {
                QPSA_EXPECTS(s.resample_hz > 0.0);
                QPSA_EXPECTS(s.segment_seconds > 1.0 &&
                             s.segment_seconds <= window_seconds);
                // Overlap capped well below 1: the hop is
                // segment_seconds * (1 - overlap), and an overlap
                // arbitrarily close to 1 would make the per-window
                // segment count unbounded.
                QPSA_EXPECTS(s.segment_overlap >= 0.0 &&
                             s.segment_overlap <= 0.95);
            },
            [](const fftw_spec&) {},
        },
        spec);
}

std::string psa_config::describe() const {
    std::ostringstream ss;
    std::visit(
        overloaded{
            [&](const conventional_spec&) {
                ss << "conventional(split-radix," << lomb.mesh_size << ")";
            },
            [&](const wavelet_spec& s) {
                ss << "proposed(" << wavelet::basis_name(s.plan.basis);
                switch (s.plan.prune.mode) {
                    case wfft::prune_mode::none:
                        ss << ",exact";
                        break;
                    case wfft::prune_mode::fixed:
                        ss << ",static";
                        break;
                    case wfft::prune_mode::dynamic:
                        ss << ",dynamic";
                        break;
                }
                if (s.plan.prune.band_drop_levels > 0) ss << ",band-drop";
                if (s.plan.prune.twiddle_fraction > 0.0)
                    ss << ","
                       << static_cast<int>(s.plan.prune.twiddle_fraction * 100)
                       << "%";
                ss << "," << s.plan.n << ")";
            },
            [&](const fixed_wavelet_spec& s) {
                ss << "fixed(" << fixed_format_name(s.format);
                if (s.band_drop) ss << ",band-drop";
                if (s.twiddle_fraction > 0.0)
                    ss << "," << static_cast<int>(s.twiddle_fraction * 100)
                       << "%";
                ss << "," << lomb.mesh_size << ")";
            },
            [&](const burg_spec& s) {
                ss << "burg-ar(order=" << s.order << "," << s.resample_hz
                   << "Hz)";
            },
            [&](const direct_lomb_spec&) {
                ss << "direct-lomb(" << lomb.mesh_size << ")";
            },
            [&](const resampled_spec& s) {
                ss << "resampled(" << s.resample_hz << "Hz,"
                   << lomb.mesh_size << ")";
            },
            [&](const welch_spec& s) {
                ss << "welch(" << s.resample_hz << "Hz," << s.segment_seconds
                   << "s," << lomb.mesh_size << ")";
            },
            [&](const fftw_spec&) {
                ss << "fftw(" << lomb.mesh_size << ")";
            },
        },
        spec);
    return ss.str();
}

wfft::plan psa_config::effective_plan() const {
    const auto* s = std::get_if<wavelet_spec>(&spec);
    QPSA_EXPECTS(s != nullptr);
    wfft::plan p = s->plan;
    p.assume_real_input = lomb.packing == lomb::fft_packing::two_transforms;
    return p;
}

engine_spec psa_config::normalized_spec() const {
    if (std::holds_alternative<wavelet_spec>(spec))
        return wavelet_spec{effective_plan()};
    return spec;
}

core::engine_key psa_config::engine_key() const {
    return core::engine_key{lomb.mesh_size, normalized_spec()};
}

std::shared_ptr<const lomb::fft_engine> psa_system::build_engine(
    const psa_config& cfg) {
    cfg.validate();
    return engine_registry::instance().build(cfg);
}

psa_system::psa_system(psa_config cfg)
    : psa_system(cfg, build_engine(cfg)) {}

psa_system::psa_system(psa_config cfg,
                       std::shared_ptr<const lomb::fft_engine> engine)
    : psa_system(cfg, engine,
                 engine != nullptr
                     ? lomb::make_weight_transform(*engine, cfg.lomb)
                     : nullptr) {}

psa_system::psa_system(psa_config cfg,
                       std::shared_ptr<const lomb::fft_engine> engine,
                       std::shared_ptr<const lomb::weight_transform> weights)
    : cfg_(std::move(cfg)),
      engine_(std::move(engine)),
      weights_(std::move(weights)) {
    cfg_.validate();
    QPSA_EXPECTS(engine_ != nullptr);
    QPSA_EXPECTS(engine_->size() == cfg_.lomb.mesh_size);
    QPSA_EXPECTS(weights_ == nullptr ||
                 weights_->spectrum.size() == cfg_.lomb.mesh_size);
    cfg_.spec = cfg_.normalized_spec();
    key_ = cfg_.engine_key();
    key_hash_ = engine_key_hash{}(key_);
}

record_analysis psa_system::analyze_record(std::span<const real> beat_times,
                                           std::span<const real> rr) const {
    lomb::welch_options wopt;
    wopt.window_seconds = cfg_.window_seconds;
    wopt.overlap = cfg_.overlap;
    wopt.taper = cfg_.taper;
    wopt.lomb = cfg_.lomb;
    wopt.min_beats = cfg_.min_beats;
    wopt.max_freq_hz = cfg_.max_freq_hz;

    const lomb::welch_result w =
        lomb::welch_lomb(beat_times, rr, *engine_, wopt, weights_.get());

    record_analysis out;
    out.averaged_spectrum = w.averaged;
    out.bands = hrv::compute_band_powers(w.averaged, cfg_.bands);
    out.segment_bands.reserve(w.segments.size());
    for (const auto& seg : w.segments)
        out.segment_bands.push_back(hrv::compute_band_powers(seg, cfg_.bands));
    out.segment_start_s = w.segment_start;
    out.diagnosis = hrv::classify(out.bands);
    out.ops = w.ops;
    out.segments = w.segments_used;
    return out;
}

void psa_system::analyze_window(std::span<const real> t,
                                std::span<const real> x, lomb::workspace& ws,
                                lomb::lomb_result& out,
                                lomb::lomb_breakdown* bd,
                                const lomb::hop_ctx* ctx) const {
    lomb::fast_lomb(t, x, *engine_, cfg_.lomb, ws, out, bd, ctx,
                    weights_.get());
}

void psa_system::analyze_window_batched(std::span<lomb::window_job> jobs,
                                        lomb::workspace& ws) const {
    lomb::fast_lomb_batched(jobs, *engine_, cfg_.lomb, ws, weights_.get());
}

}  // namespace qpsa::core
