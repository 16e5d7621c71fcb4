// Shared pieces of the three fleet daemons (aggregator, shard node,
// front-end): the demo config registry and the paper's monitoring
// cadence.
//
// The registry is the piece the wire protocol cannot carry: a
// session_config holds live process resources (a shared
// quality_controller, callbacks), so admits and migrations ship a config
// *token* and every process resolves it through this one function.  All
// three daemons -- and the front-end's in-process reference fleet --
// compile this header, which is exactly the deployment story: config
// code is rolled out to every node, state travels over the socket.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "qpsa/core/quality_controller.hpp"
#include "qpsa/service/service.hpp"

namespace fleet_demo {

inline qpsa::core::monitor_options paper_monitor() {
    qpsa::core::monitor_options opt;
    opt.window_seconds = 120.0;  // the paper's 2-minute window
    opt.hop_seconds = 60.0;      // at 50 % overlap
    return opt;
}

/// The degradation ladder governed sessions run: exact double -> Q15
/// fixed point -> statically pruned wavelet, with design-time
/// calibration numbers.
inline std::shared_ptr<const qpsa::core::quality_controller> ladder() {
    namespace qc = qpsa::core;
    std::vector<qc::mode_profile> table(3);
    table[0].name = "conventional";
    table[0].spec = qc::conventional_spec{};
    table[1].name = "fixed-q15";
    table[1].spec = qc::fixed_wavelet_spec{qc::fixed_format::q15};
    table[1].expected_error_pct = 2.0;
    table[1].expected_savings_vfs = 0.35;
    table[2].name = "pruned";
    table[2].spec = qc::wavelet_spec{qpsa::wfft::plan::static_pruned(
        512, qpsa::wavelet::basis::haar, qpsa::wfft::twiddle_set::set2)};
    table[2].expected_error_pct = 7.0;
    table[2].expected_savings_vfs = 0.6;
    return std::make_shared<const qc::quality_controller>(std::move(table));
}

/// The config registry: token -> session_config.  Identity fields
/// (patient_id, seed, global_id) are overridden by the admitting
/// server; everything else must be byte-for-byte reproducible on every
/// node, or a migrated session would resume under a different config.
///
/// Tokens:
///   "plain"     conventional engine, no governor
///   "governed"  runtime QDES over the ladder, small battery (switches
///               happen within a demo-length run)
inline qpsa::service::session_config make_config(std::string_view token,
                                                 std::string_view patient_id) {
    namespace qc = qpsa::core;
    qpsa::service::session_config cfg;
    cfg.patient_id = std::string(patient_id);
    cfg.analysis = qc::psa_config::conventional();
    cfg.monitor = paper_monitor();
    cfg.ingest_capacity = 4096;
    if (token == "governed") {
        cfg.quality.controller = ladder();
        cfg.quality.governed = true;
        cfg.quality.governor.reselect_every = 1;
        cfg.quality.governor.min_dwell = 2;
        cfg.quality.governor.switch_margin = 0.02;
        cfg.quality.governor.budget_full_pct = 0.0;
        cfg.quality.governor.budget_empty_pct = 10.0;
        cfg.battery.capacity_j = 2.6e-3;
    }
    return cfg;
}

}  // namespace fleet_demo
