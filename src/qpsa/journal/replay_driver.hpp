// Deterministic replay of a journaled run.
//
// The journal records the exact beat stream every session drained (in
// order, malformed beats included) plus each session's seed and monitor
// shape, and the service guarantees window results are a pure function
// of the beat stream (bit-identical across worker counts, pump cadences
// and shard topologies).  Those two facts make a journal re-runnable:
// feed the recorded beats through a fresh fleet and
//   * under the same analysis config and quality policy, every window
//     report reproduces bit for bit (CI gates on it);
//   * under a different engine_spec or policy, the run becomes a
//     retrospective re-analysis -- same patients, same beats, different
//     estimator -- the HRnV-style "what would the welch estimator have
//     said" workflow (examples/replay_reanalyze.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qpsa/journal/report_reader.hpp"
#include "qpsa/service/session_manager.hpp"

namespace qpsa::journal {

struct replay_options {
    /// Fleet shape for the replay (threads, scheduler, node model...).
    /// Results do not depend on it; wall-clock does.
    service::service_options service;
};

/// One recorded session: its admission-time meta, its beat stream and
/// the reports the original run journaled.
struct session_replay {
    session_meta meta;
    std::vector<beat_event> beats;
    std::vector<core::window_report> recorded;

    bool operator==(const session_replay&) const = default;
};

struct replay_result {
    service::fleet_snapshot fleet;  ///< the replay fleet's merged snapshot
    std::uint64_t sessions = 0;
    std::uint64_t beats = 0;
    std::uint64_t windows = 0;  ///< windows the replay completed
    /// Recorded-vs-replayed fidelity (bitwise operator== per report).
    std::uint64_t reports_compared = 0;
    std::uint64_t reports_matched = 0;
    /// Every session replayed the same number of windows and every
    /// report matched bit for bit -- true for same-spec replays, false
    /// (by design) for re-analysis under a different spec.
    bool all_identical = false;
};

/// Maps a recorded session to the configuration it is replayed under.
/// The driver then forces seed, monitor shape and patient id from the
/// record (and keep_reports on), so the callback only decides analysis,
/// quality policy, battery and ingest shape.
using replay_config_fn =
    std::function<service::session_config(const session_meta&)>;

class replay_driver {
public:
    /// Loads and groups every journal under `dir` (same error contract
    /// as rebuild_fleet_snapshot).
    explicit replay_driver(const std::string& dir);

    /// Recorded sessions in global-id order.
    std::span<const session_replay> sessions() const noexcept {
        return {sessions_.data(), sessions_.size()};
    }

    /// Re-run the recorded beat streams through a fresh fleet.
    replay_result run(const replay_config_fn& make_config,
                      const replay_options& opt = {}) const;

    /// Convenience: replay every session under one analysis config (the
    /// re-analysis workflow); default-constructed quality/battery.
    replay_result run_with(const core::psa_config& analysis,
                           const replay_options& opt = {}) const;

private:
    std::vector<session_replay> sessions_;
};

}  // namespace qpsa::journal
