#include "workload.hpp"

#include <stdexcept>

#include "qpsa/util/random.hpp"

namespace perfbench {

namespace {

core::monitor_options paper_monitor() {
    core::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

/// Hop-aligned variant of a config (as the library's hop-cache mix runs
/// them): mesh engines pinned to Lagrange extirpolation on the fixed 120 s
/// span, whole-window estimators aligned for series / segment reuse.
core::psa_config aligned(core::psa_config cfg, bool mesh) {
    if (mesh) cfg.lomb.mesh = qpsa::lomb::mesh_mode::lagrange_extirpolation;
    cfg.lomb.ofac = 1.0;
    cfg.lomb.span_override = 120.0;
    cfg.lomb.hop_aligned = true;
    return cfg;
}

qpsa::wfft::plan pruned_plan() {
    return qpsa::wfft::plan::static_pruned(512, qpsa::wavelet::basis::haar,
                                           qpsa::wfft::twiddle_set::set2);
}

/// Degradation ladder of the governed sessions: exact double -> Q15 fixed
/// point -> pruned wavelet, with hand-set calibration numbers (monotone
/// distortion and savings) standing in for a design-time calibration.
std::shared_ptr<const core::quality_controller> degradation_ladder() {
    std::vector<core::mode_profile> table(3);
    table[0].name = "conventional";
    table[0].spec = core::conventional_spec{};
    table[1].name = "fixed-q15";
    table[1].spec = core::fixed_wavelet_spec{core::fixed_format::q15};
    table[1].expected_error_pct = 2.0;
    table[1].expected_savings_vfs = 0.35;
    table[2].name = "pruned";
    table[2].spec = core::wavelet_spec{pruned_plan()};
    table[2].expected_error_pct = 7.0;
    table[2].expected_savings_vfs = 0.6;
    return std::make_shared<const core::quality_controller>(std::move(table));
}

/// One patient stream from the seed-driven generator.
patient_stream draw_stream(qpsa::util::rng& rng,
                           const std::shared_ptr<const beat_bank>& bank,
                           real ectopic_p, real dropout_p) {
    const auto record = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bank->rr.size()) - 1));
    const auto rotation = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(bank->rr[record].size()) - 1));
    const real phase = rng.uniform(0.0, 60.0);
    const std::uint64_t art = rng.engine()();
    return patient_stream(bank, record, rotation, phase, art, ectopic_p,
                          dropout_p);
}

}  // namespace

std::shared_ptr<const beat_bank> make_bank(unsigned per_cohort,
                                           real record_seconds) {
    auto bank = std::make_shared<beat_bank>();
    bank->rr.reserve(2 * per_cohort);
    for (unsigned i = 0; i < per_cohort; ++i) {
        for (const auto group : {qpsa::physio::cohort::sinus_arrhythmia,
                                 qpsa::physio::cohort::healthy}) {
            auto rec = qpsa::physio::record_for(qpsa::physio::make_patient(group, i),
                                                record_seconds);
            bank->rr.push_back(std::move(rec.rr_s));
        }
    }
    return bank;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"replay-mix-1w",
                                                   "live-sharded", "governed-hop"};
    return names;
}

std::vector<core::psa_config> mode_mix() {
    return {
        core::psa_config::conventional(),
        core::psa_config::proposed(
            qpsa::wfft::plan::exact(512, qpsa::wavelet::basis::haar)),
        core::psa_config::proposed(pruned_plan()),
        core::psa_config::fixed_wavelet(core::fixed_format::q15),
        core::psa_config::fixed_wavelet(core::fixed_format::q31),
        core::psa_config::burg_ar(),
        core::psa_config::resampled(),
        core::psa_config::welch(),
    };
}

std::string kind_name(const core::psa_config& cfg) {
    const core::engine_spec& s = cfg.spec;
    if (std::holds_alternative<core::conventional_spec>(s)) return "conventional";
    if (const auto* wv = std::get_if<core::wavelet_spec>(&s))
        return wv->plan.prune.mode == qpsa::wfft::prune_mode::none
                   ? "wavelet-exact"
                   : "wavelet-pruned";
    if (const auto* fx = std::get_if<core::fixed_wavelet_spec>(&s))
        return fx->format == core::fixed_format::q15 ? "fixed-q15" : "fixed-q31";
    if (std::holds_alternative<core::burg_spec>(s)) return "burg-ar";
    if (std::holds_alternative<core::resampled_spec>(s)) return "resampled";
    if (std::holds_alternative<core::welch_spec>(s)) return "welch";
    return "other";
}

workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
    workload w;
    w.name = name;
    w.monitor = paper_monitor();
    qpsa::util::rng rng = qpsa::util::rng::for_stream(seed, 0xc0407);
    const auto bank = make_bank(tiny ? 2 : 16, 3600.0);

    const auto add = [&](std::string id, core::psa_config cfg, real ectopic_p,
                         real dropout_p) -> session_plan& {
        session_plan& p = w.sessions.emplace_back();
        p.patient_id = std::move(id);
        p.analysis = std::move(cfg);
        p.stream = draw_stream(rng, bank, ectopic_p, dropout_p);
        return p;
    };

    if (name == "replay-mix-1w") {
        const unsigned n = tiny ? 24 : 512;
        const auto mix = mode_mix();
        w.workers = 1;
        for (unsigned i = 0; i < n; ++i)
            add("mix-" + std::to_string(i), mix[i % mix.size()], 0.0, 0.0);
    } else if (name == "live-sharded") {
        const unsigned n = tiny ? 32 : 2048;
        w.open_loop = true;
        w.workers = 1;
        w.shards = 4;
        w.journal = true;
        // Offered load: one window per patient per simulated minute, so
        // n / 60 * accel windows/s -- ~4k/s for the full cohort.
        w.accel = tiny ? 600.0 : 4000.0 * 60.0 / n;
        w.warmup_sim_s = 240.0;
        const core::psa_config systems[2] = {
            core::psa_config::conventional(),
            core::psa_config::proposed(pruned_plan()),
        };
        for (unsigned i = 0; i < n; ++i)
            add("live-" + std::to_string(i), systems[i % 2], 0.005, 2e-4);
    } else if (name == "governed-hop") {
        const unsigned n = tiny ? 24 : 1024;
        w.workers = 4;
        const auto ladder = degradation_ladder();
        const core::psa_config ungoverned[3] = {
            aligned(core::psa_config::welch(4.0, 30.0), false),
            aligned(core::psa_config::resampled(), false),
            aligned(core::psa_config::proposed(qpsa::wfft::plan::exact(
                        512, qpsa::wavelet::basis::haar)),
                    true),
        };
        for (unsigned i = 0; i < n; ++i) {
            if (i % 2 == 0) {
                session_plan& p = add("gov-" + std::to_string(i),
                                      aligned(core::psa_config::conventional(), true),
                                      0.0, 0.0);
                p.quality.controller = ladder;
                p.quality.governed = true;
                p.quality.governor.reselect_every = 1;
                p.quality.governor.min_dwell = 2;
                p.quality.governor.switch_margin = 0.02;
                p.quality.governor.budget_empty_pct = 10.0;
                // ~2.8e-4 J of duty-cycle overhead per window: a seeded
                // capacity spreads each session's two switches over the
                // run (from ~10 to ~350 windows in).
                p.battery.capacity_j =
                    tiny ? rng.uniform(2.6e-3, 5e-3) : rng.uniform(2.6e-3, 0.1);
            } else {
                add("hop-" + std::to_string(i), ungoverned[(i / 2) % 3], 0.0, 0.0);
            }
        }
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

}  // namespace perfbench
