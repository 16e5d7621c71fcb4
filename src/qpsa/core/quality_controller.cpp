#include "qpsa/core/quality_controller.hpp"

#include <algorithm>
#include <cmath>

#include "qpsa/lomb/welch_lomb.hpp"
#include "qpsa/util/stats.hpp"
#include "qpsa/wfft/calibration.hpp"

namespace qpsa::core {

namespace {

/// Engine decorator that records every transform input; used to harvest
/// realistic FFT inputs for threshold calibration without duplicating the
/// mesh-construction code.
class capturing_engine final : public lomb::fft_engine {
public:
    explicit capturing_engine(const lomb::fft_engine& inner) : inner_(inner) {}

    std::size_t size() const noexcept override { return inner_.size(); }
    std::string name() const override { return "capture(" + inner_.name() + ")"; }
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 wfft::exec_stats* stats) const override {
        captured_.emplace_back(in.begin(), in.end());
        inner_.forward(in, out, stats);
    }

    const std::vector<std::vector<cplx>>& captured() const noexcept {
        return captured_;
    }

private:
    const lomb::fft_engine& inner_;
    mutable std::vector<std::vector<cplx>> captured_;
};

struct reference_run {
    std::vector<real> ratios;                 // per patient
    std::vector<counting::op_counts> ops;     // per patient
    std::vector<std::vector<cplx>> fft_inputs;
};

lomb::welch_options welch_options_of(const psa_config& cfg) {
    lomb::welch_options w;
    w.window_seconds = cfg.window_seconds;
    w.overlap = cfg.overlap;
    w.taper = cfg.taper;
    w.lomb = cfg.lomb;
    w.min_beats = cfg.min_beats;
    w.max_freq_hz = cfg.max_freq_hz;
    return w;
}

/// Strict-weak-order for mode selection: deeper VFS savings first, then
/// lower expected distortion, then name -- a total order over distinct
/// profiles, so selection is independent of table iteration order.
bool deeper_saving(const mode_profile& a, const mode_profile& b) {
    if (a.expected_savings_vfs != b.expected_savings_vfs)
        return a.expected_savings_vfs > b.expected_savings_vfs;
    if (a.expected_error_pct != b.expected_error_pct)
        return a.expected_error_pct < b.expected_error_pct;
    return a.name < b.name;
}

/// Fallback order when nothing fits the budget: least distortion first,
/// same deterministic tie-breaking.
bool less_distorting(const mode_profile& a, const mode_profile& b) {
    if (a.expected_error_pct != b.expected_error_pct)
        return a.expected_error_pct < b.expected_error_pct;
    if (a.expected_savings_vfs != b.expected_savings_vfs)
        return a.expected_savings_vfs > b.expected_savings_vfs;
    return a.name < b.name;
}

}  // namespace

psa_config mode_profile::apply_to(psa_config base) const {
    base.spec = spec;
    if (const auto* w = std::get_if<wavelet_spec>(&spec))
        base.lomb.mesh_size = w->plan.n;
    else if (mesh != 0)
        base.lomb.mesh_size = mesh;
    base.validate();
    return base;
}

quality_controller::quality_controller(std::vector<mode_profile> table)
    : table_(std::move(table)) {
    QPSA_EXPECTS(!table_.empty());
}

std::size_t quality_controller::select_index(real qdes_error_pct) const {
    const mode_profile* best = nullptr;
    for (const auto& m : table_) {
        if (m.expected_error_pct > qdes_error_pct) continue;
        if (best == nullptr || deeper_saving(m, *best)) best = &m;
    }
    // The least aggressive mode is the fallback when even it violates the
    // budget (caller asked for tighter quality than any mode delivers).
    if (best == nullptr) {
        best = &table_.front();
        for (const auto& m : table_)
            if (less_distorting(m, *best)) best = &m;
    }
    return static_cast<std::size_t>(best - table_.data());
}

const mode_profile& quality_controller::select(real qdes_error_pct) const {
    return table_[select_index(qdes_error_pct)];
}

quality_controller build_quality_controller(const controller_build_options& opt,
                                            const energy::node_model& node) {
    QPSA_EXPECTS(opt.training_patients >= 1);

    // --- training records -------------------------------------------------
    std::vector<physio::rr_record> records;
    for (unsigned i = 0; i < opt.training_patients; ++i) {
        const physio::patient p =
            physio::make_patient(physio::cohort::sinus_arrhythmia, i);
        records.push_back(physio::record_for(p, opt.record_seconds));
    }

    // --- conventional reference + captured FFT inputs ----------------------
    const psa_config conv_cfg = psa_config::conventional(opt.mesh);
    const auto conv_engine = lomb::make_split_radix_engine(opt.mesh);
    capturing_engine capture(*conv_engine);

    reference_run ref;
    for (const auto& rec : records) {
        const auto w = lomb::welch_lomb(rec.beat_time_s, rec.rr_s, capture,
                                        welch_options_of(conv_cfg));
        const auto bands = hrv::compute_band_powers(w.averaged, conv_cfg.bands);
        ref.ratios.push_back(bands.lf_hf_ratio());
        ref.ops.push_back(w.ops.total());
    }
    // welch_lomb is given no weight transform here, so the capture holds
    // both meshes of every segment in transform order: half of the
    // calibration set is the constant staircase weight mesh.  Dropping it
    // would change the calibrated thresholds (a numerics change, not a
    // speed-up).
    ref.fft_inputs = capture.captured();

    // --- wavelet calibration over the captured inputs ----------------------
    const wfft::plan exact_plan =
        wfft::plan::exact(opt.mesh, opt.basis);
    const wfft::calibration_result cal =
        wfft::calibrate(exact_plan, ref.fft_inputs);

    // --- assemble the mode list --------------------------------------------
    struct mode_def {
        std::string name;
        psa_config config;
    };
    std::vector<mode_def> defs;
    defs.push_back({"exact-wavelet", psa_config::proposed(exact_plan)});
    defs.push_back({"band-drop", psa_config::proposed(wfft::plan::band_dropped(
                                     opt.mesh, opt.basis))});
    const wfft::twiddle_set sets[] = {wfft::twiddle_set::set1,
                                      wfft::twiddle_set::set2,
                                      wfft::twiddle_set::set3};
    for (const auto s : sets)
        defs.push_back({std::string("static+") + wfft::set_name(s),
                        psa_config::proposed(wfft::plan::static_pruned(
                            opt.mesh, opt.basis, s))});
    if (opt.include_dynamic) {
        for (const auto s : sets) {
            wfft::plan p = wfft::plan::dynamic_pruned(
                opt.mesh, opt.basis, s, /*data_thr=*/0.0, cal.band_threshold);
            p.prune.data_threshold = wfft::tune_data_threshold(
                p, wfft::set_fraction(s), ref.fft_inputs, cal);
            defs.push_back({std::string("dynamic+") + wfft::set_name(s),
                            psa_config::proposed(p)});
        }
    }
    // The non-wavelet registry kinds: same pipeline, different engine --
    // what lets the run-time governor switch a node off the double
    // datapath entirely (e.g. to Q15 under battery pressure).
    if (opt.include_fixed_point) {
        defs.push_back({"fixed-q15", psa_config::fixed_wavelet(
                                         fixed_format::q15, opt.mesh)});
        defs.push_back({"fixed-q31", psa_config::fixed_wavelet(
                                         fixed_format::q31, opt.mesh)});
    }
    if (opt.include_estimators) {
        defs.push_back({"burg-ar", psa_config::burg_ar(16, opt.mesh)});
        defs.push_back({"resampled", psa_config::resampled(4.0, opt.mesh)});
    }

    // --- measure every mode -------------------------------------------------
    std::vector<mode_profile> table;
    for (const auto& def : defs) {
        mode_profile prof;
        prof.name = def.name;
        prof.spec = def.config.normalized_spec();
        prof.mesh = def.config.lomb.mesh_size;
        const psa_system sys(def.config);

        std::vector<real> errors;
        std::vector<real> savings;
        std::vector<real> savings_vfs;
        std::size_t agree = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto res =
                sys.analyze_record(records[i].beat_time_s, records[i].rr_s);
            const real ratio = res.lf_hf_ratio();
            errors.push_back(100.0 * std::abs(ratio - ref.ratios[i]) /
                             ref.ratios[i]);
            const auto ops = res.ops.total();
            savings.push_back(node.savings_nominal(ops, ref.ops[i]));
            savings_vfs.push_back(node.savings_with_vfs(ops, ref.ops[i]));
            if ((ratio < 1.0) == (ref.ratios[i] < 1.0)) ++agree;
        }
        prof.expected_error_pct = util::mean(errors);
        prof.expected_savings = util::mean(savings);
        prof.expected_savings_vfs = util::mean(savings_vfs);
        prof.detection_agreement =
            static_cast<real>(agree) / static_cast<real>(records.size());
        table.push_back(std::move(prof));
    }
    return quality_controller(std::move(table));
}

}  // namespace qpsa::core
