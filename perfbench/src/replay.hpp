// Serial layer replay of the traced run: a seeded sample of a workload's
// windows, cut by a staging streaming_monitor and timed layer by layer
// (monitor cut/bands/classify, psa_system analysis per engine kind,
// extirpolation, the transform, and op counting on vs paused).
#pragma once

#include <array>
#include <cstdint>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct replay_rows {
    double monitor_self_us = 0.0;  ///< push_beat + finish_staged, per window
    double extirpolate_us = 0.0;   ///< lomb::extirpolate, per window
    std::array<double, kLedgerKinds.size()> analyze_us{};
    std::array<double, kLedgerKinds.size()> transform_us{};
    std::array<double, kLedgerKinds.size()> fast_lomb_self_us{};
    std::array<double, kLedgerKinds.size()> counting_overhead_us{};
};

/// Needs the tracer installed (transform time comes from the decorator).
replay_rows run_replay(const workload& w, std::uint64_t seed, bool tiny);

}  // namespace perfbench
