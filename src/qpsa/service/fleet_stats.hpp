// Fleet-wide roll-up of analysis results.
//
// Every window any session completes lands here: op counts and energy
// (priced on the shared node model, nominal and VFS), band-power sums,
// the arrhythmia census, per-engine-kind tallies and the adaptive-QDES
// columns (mode switches, battery state).  Workers do not take a lock per
// window: each batch task accumulates into a private fleet_partial and
// merges it once at the batch barrier, so the one mutex is contended
// per-batch, not per-window.  Snapshots are mergeable (operator+=), which
// is what lets sharded deployments roll K managers up losslessly.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/energy/fleet.hpp"
#include "qpsa/hrv/detector.hpp"
#include "qpsa/service/byte_codec.hpp"

namespace qpsa::journal {
class report_writer;
}

namespace qpsa::service {

/// Wire-format version written by fleet_snapshot::serialize.  Versioning
/// rules: additive layout changes bump this and the deserializer keeps
/// accepting every older version it ever shipped; engine_class_count is
/// recorded in the header, so a snapshot from a build with fewer engine
/// kinds (an older leaf-engine set) loads into the wider table while one
/// with more kinds than the reader knows is rejected loudly.
/// History: v1 = PR 5 layout; v2 appends the high-water (retired: 0 from
/// live fleets) and journal telemetry columns after ratio_sum; v3 appends
/// the live-migration columns (sessions_migrated_in/out); v4 appends the
/// hop-cache columns (hop_hits/hop_misses/hop_bytes, retired: 0 from live
/// fleets); v5 appends the drain-scheduler columns (windows_stolen/
/// lane_slots_filled/lane_slots_offered).  Older payloads still load with
/// the missing trailing columns zero.
inline constexpr std::uint16_t fleet_wire_version = 5;

/// Per-engine-kind tally (one slot per core::engine_class).
struct engine_tally {
    std::uint64_t windows = 0;
    std::uint64_t beats = 0;
    real energy_nominal_j = 0.0;

    engine_tally& operator+=(const engine_tally& o) {
        windows += o.windows;
        beats += o.beats;
        energy_nominal_j += o.energy_nominal_j;
        return *this;
    }
    bool operator==(const engine_tally&) const = default;
};

/// Ingest-health alarm for one session: beats the ring rejected on
/// overflow and beats the monitor rejected as malformed.  `overwritten`
/// is retired (rings no longer evict): 0 from live fleets, still encoded
/// so existing payloads load.
struct session_drop_alarm {
    std::uint64_t session_id = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t overwritten = 0;
    bool operator==(const session_drop_alarm&) const = default;
};

/// Adaptive-QDES state of one governed session: how often its governor
/// has switched modes, which engine kind it is running now, and its
/// node's remaining battery fraction.
struct session_quality {
    std::uint64_t session_id = 0;
    std::uint64_t mode_switches = 0;
    core::engine_class current_mode = core::engine_class::conventional;
    real battery_fraction = 1.0;
    bool operator==(const session_quality&) const = default;
};

/// Consistent snapshot of the fleet tallies.  The summed op counts live
/// in energy.ops (priced and tallied in one place; no second copy that
/// could diverge).
struct fleet_snapshot {
    std::uint64_t windows = 0;
    std::uint64_t beats = 0;
    std::uint64_t arrhythmia_windows = 0;
    energy::fleet_energy_totals energy;

    /// Windows/beats/energy split by the engine kind that produced them.
    std::array<engine_tally, core::engine_class_count> by_engine{};

    /// Ingest-drop roll-up (filled by session_manager::fleet(); plain
    /// fleet_stats snapshots have no ingest visibility and report 0).
    /// beats_overwritten is retired (rings no longer evict): 0 from live
    /// fleets, still encoded so existing payloads load.
    std::uint64_t beats_dropped = 0;
    std::uint64_t beats_rejected = 0;
    std::uint64_t beats_overwritten = 0;
    /// Per-session alarms for every session with a nonzero drop count.
    std::vector<session_drop_alarm> drop_alarms;

    /// Adaptive-QDES roll-up (also filled by session_manager::fleet()):
    /// total governor mode switches, the lowest battery fraction of any
    /// node in the fleet, and per-session quality state for every session
    /// running under a quality policy.
    std::uint64_t mode_switches = 0;
    real battery_fraction_min = 1.0;
    std::vector<session_quality> quality;

    /// Retired ingest-backpressure column (high-water alarm firings; the
    /// callback is gone): 0 from live fleets, still encoded so existing
    /// payloads load.  Counts add under operator+=.
    std::uint64_t high_water_alarms = 0;

    /// Journal telemetry: records appended, framed bytes on disk, fsyncs
    /// issued, torn tails encountered.  Filled from the attached
    /// report_writer by session_manager::fleet() (torn tails by the
    /// recovery scan); zero when no journal is attached.
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_fsyncs = 0;
    std::uint64_t journal_torn_tails = 0;

    /// Live-migration telemetry: sessions this fleet has shipped out /
    /// adopted (filled by session_manager::fleet()).  In a fully
    /// consistent merged view every out has a matching in.
    std::uint64_t sessions_migrated_in = 0;
    std::uint64_t sessions_migrated_out = 0;

    /// Retired hop-cache telemetry (reuse hits / misses and cached
    /// bytes): live fleets report 0.  The columns stay because persisted
    /// v4/v5 payloads carry them and must load losslessly.  Counts add
    /// under operator+=.
    std::uint64_t hop_hits = 0;
    std::uint64_t hop_misses = 0;
    std::uint64_t hop_bytes = 0;

    /// Drain-scheduler telemetry: windows completed on stolen drain
    /// units, and the SIMD lane-fill tallies of the staged drains
    /// (lane_fill = lane_slots_filled / lane_slots_offered).  Unlike the
    /// drop columns these ride the per-slice fleet_partial accumulators,
    /// so they land in the journaled stats_delta stream and a recovery
    /// rebuild reproduces them exactly.  Lossless under operator+=.  Both
    /// depend on the schedule by design: lane fill on which shards share
    /// a pass (batch_scheduler.hpp), windows_stolen on the steal
    /// interleaving (a serial pool reports 0).  The journal records what
    /// happened; cross-topology and cross-run comparisons normalize them.
    std::uint64_t windows_stolen = 0;
    std::uint64_t lane_slots_filled = 0;
    std::uint64_t lane_slots_offered = 0;

    // Sums over windows; use the mean_* helpers for averages.
    real lf_sum = 0.0;
    real hf_sum = 0.0;
    real ratio_sum = 0.0;

    const engine_tally& engine(core::engine_class c) const {
        return by_engine[static_cast<std::size_t>(c)];
    }

    real mean_lf() const { return windows ? lf_sum / real(windows) : 0.0; }
    real mean_hf() const { return windows ? hf_sum / real(windows) : 0.0; }
    real mean_ratio() const {
        return windows ? ratio_sum / real(windows) : 0.0;
    }
    real arrhythmia_fraction() const {
        return windows ? real(arrhythmia_windows) / real(windows) : 0.0;
    }

    /// Lossless merge of another (disjoint) fleet's tallies -- the
    /// sharding primitive: shard snapshots sum into one deployment view
    /// (counts add, battery_fraction_min takes the min, per-session lists
    /// concatenate).  Rows keep their session ids, so merged shards must
    /// name sessions from one id space (shard_router and ingest_server
    /// give every session its fleet-wide id).
    fleet_snapshot& operator+=(const fleet_snapshot& o);

    bool operator==(const fleet_snapshot&) const = default;

    /// Versioned binary encoding (byte rules: byte_codec.hpp) -- the
    /// cross-process transport primitive: a shard process serializes its
    /// snapshot, the aggregator deserializes and operator+=s it, and the
    /// result is bit-identical to an in-process merge (the round trip is
    /// lossless).
    /// Always the current fleet_wire_version layout.
    std::vector<std::uint8_t> serialize() const;
    /// Append the serialize() encoding to `w` (the journal encodes its
    /// stats deltas into one reused buffer this way).
    void write(byte_writer& w) const;
    /// Parse bytes produced by serialize(); throws wire_error on
    /// malformed input.  Columns a payload's (older) version predates
    /// load as zero.  Implemented in wire.cpp.
    static fleet_snapshot deserialize(std::span<const std::uint8_t> bytes);
};

class fleet_stats;

/// Single-threaded window accumulator: a batch task prices and folds its
/// windows here (no lock) and merges the total into fleet_stats once at
/// the batch barrier.  Construction is allocation-free (the embedded
/// snapshot's vectors start empty), so the scheduler can stack one per
/// task without touching the per-window heap budget.
class fleet_partial {
public:
    /// Price one completed window and fold it in; returns the window's
    /// nominal PSA energy (the session's battery-drain feed).
    real add_report(const core::window_report& rep);

    /// Drain-scheduler telemetry fold-in (batch_scheduler): lane-fill
    /// tallies of this unit's batched analyze calls, and its completed
    /// windows when a thief drained it.  Riding the partial puts these
    /// columns in the journaled stats_delta stream, so a crash-recovery
    /// rebuild reproduces them bit-identically like every other column.
    void add_lane_fill(std::uint64_t filled, std::uint64_t offered) noexcept {
        snap_.lane_slots_filled += filled;
        snap_.lane_slots_offered += offered;
    }
    void add_stolen_windows(std::uint64_t n) noexcept {
        snap_.windows_stolen += n;
    }

    const fleet_snapshot& data() const noexcept { return snap_; }
    bool empty() const noexcept {
        return snap_.windows == 0 && snap_.lane_slots_offered == 0;
    }

private:
    friend class fleet_stats;
    fleet_partial(const energy::node_model* node,
                  real vfs_deadline_s) noexcept
        : node_(node), vfs_deadline_s_(vfs_deadline_s) {}

    const energy::node_model* node_;
    real vfs_deadline_s_;
    fleet_snapshot snap_;
};

class fleet_stats {
public:
    /// `vfs_deadline_s`: per-window real-time budget used for the VFS
    /// energy column (typically the monitor hop); 0 disables VFS pricing.
    explicit fleet_stats(energy::node_model node = energy::node_model{},
                         real vfs_deadline_s = 0.0);

    /// A fresh per-task accumulator bound to this fleet's pricing.
    fleet_partial make_partial() const noexcept {
        return fleet_partial(&node_, vfs_deadline_s_);
    }

    /// Fold a batch's partial into the shared tallies (one lock per
    /// batch; the per-window path never touches the mutex).
    void merge(const fleet_partial& partial);

    /// Convenience single-window path for off-pool callers (tests, tools
    /// pricing a window inline); the batch path goes through partials.
    void add_report(const core::window_report& rep);

    /// Attach a journal sink: every merged partial is also appended to
    /// `j` as a stats_delta record, under the stats mutex and therefore
    /// in merge order -- the ordering the bit-identical crash-recovery
    /// rebuild replays.  Wire it up before pumping (the setter itself is
    /// not synchronized against concurrent merges); nullptr detaches.
    void set_journal(journal::report_writer* j) noexcept { journal_ = j; }

    fleet_snapshot snapshot() const;

private:
    /// Used for (lock-free, const) pricing only; all totals -- energy
    /// included -- live in agg_ under the one mutex so snapshots are
    /// consistent across columns.
    energy::node_model node_;
    real vfs_deadline_s_;
    mutable std::mutex mu_;
    fleet_snapshot agg_;
    journal::report_writer* journal_ = nullptr;
};

}  // namespace qpsa::service
