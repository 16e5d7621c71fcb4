// One monitored patient inside the service.
//
// A session owns the patient's ingest ring, their streaming_monitor (built
// over shared cached engines), their simulated node battery and their QDES
// governor (the paper's Fig. 2 loop, closed at run time).  Threading
// contract: the ingest edge (one producer thread) calls ingest();
// everything else -- the pump_to_stage / finish_staged drain, mode
// changes, accessors below -- runs on at most one scheduler thread at a
// time (a pass hands a session to exactly one pool worker).  The
// quality/battery columns read by fleet snapshots are atomics, so
// session_manager::fleet() may run concurrently with a draining worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qpsa/core/quality_governor.hpp"
#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/energy/battery.hpp"
#include "qpsa/journal/journal_format.hpp"
#include "qpsa/service/ring_buffer.hpp"
#include "qpsa/util/random.hpp"

namespace qpsa::journal {
class report_writer;
}

namespace qpsa::service {

class fleet_partial;

/// Sentinel for session_config::global_id: the manager assigns the
/// session's local slot (shard_router and ingest_server preset the
/// fleet-wide id instead).
inline constexpr std::uint64_t global_id_auto = ~std::uint64_t{0};

struct session_config {
    std::string patient_id;
    /// Initial analysis configuration (possibly replaced by QDES below).
    core::psa_config analysis;
    core::monitor_options monitor;

    /// Per-patient quality policy.  With a controller and a positive
    /// static budget the session starts in the deepest-saving mode whose
    /// expected distortion fits; with `quality.governed` the governor
    /// additionally re-selects from live battery state every N windows
    /// (and may switch engine *kinds*, not just pruning depth).
    core::quality_policy quality;

    /// Simulated node battery driving the governor's budget input; the
    /// default CR2032-class cell barely moves over a test run, so
    /// adaptive scenarios configure a smaller capacity.
    energy::battery_config battery;

    /// Ingest ring capacity (rounded up to a power of two).  A full ring
    /// rejects the next beat and counts it (beats_dropped).
    std::size_t ingest_capacity = 1024;

    /// Durability sink: when set, the drain loop appends every popped
    /// beat and every completed window report (with post-window battery
    /// and governor state) to this journal.  Owned by the service layer
    /// and shared by every session on the shard; session_manager wires
    /// it from service_options::journal.
    journal::report_writer* journal = nullptr;
    /// The session's fleet-wide id: session::id(), stamped into journal
    /// records, migrated state and fleet() rows.
    /// global_id_auto uses the local slot.
    std::uint64_t global_id = global_id_auto;

    /// Per-session random stream seed; 0 lets the manager derive one from
    /// its base seed and the session id (util::derive_stream_seed), so a
    /// fleet is reproducible regardless of scheduling order.
    std::uint64_t seed = 0;

    /// Retain every completed window_report on the session (tests and the
    /// bench compare them against serial runs).  Long-running deployments
    /// turn this off and read the bounded monitor history instead.
    bool keep_reports = true;
};

/// One applied governor re-selection: after completed window number
/// `window_index` (1-based), the session switched to the controller mode
/// at `mode_index`.  Replaying this schedule against a serial monitor
/// reproduces the governed session bit for bit.
struct mode_switch_event {
    std::uint64_t window_index = 0;
    std::size_t mode_index = 0;

    bool operator==(const mode_switch_event&) const = default;
};

struct session_runtime_state;

class session {
public:
    /// `cfg.global_id` must be resolved (not global_id_auto).
    session(session_config cfg, core::system_factory factory);

    /// Adoption constructor: build the session and then restore the full
    /// run-time state an extract() on another shard produced (monitor
    /// window, governor hysteresis, battery charge, buffered beats and
    /// every counter).  `cfg.seed` / `cfg.global_id` should already
    /// carry the migrating session's identity (session_manager::
    /// adopt_session presets them from the state).
    session(session_config cfg, core::system_factory factory,
            const session_runtime_state& st);

    /// The fleet-wide id (session_config::global_id).
    std::uint64_t id() const noexcept { return cfg_.global_id; }
    const std::string& patient_id() const noexcept { return cfg_.patient_id; }
    std::uint64_t seed() const noexcept { return cfg_.seed; }
    util::rng make_rng(std::uint64_t stream) const {
        return util::rng::for_stream(cfg_.seed, stream);
    }

    /// Producer side: enqueue one beat.  Never blocks; returns false when
    /// the ring is full (the beat is dropped and counted).
    bool ingest(real beat_time_s, real rr_s) noexcept {
        // An extracted session rejects like a full ring: its state has
        // left this shard, so accepting a beat here would lose it.  (The
        // producer is quiesced before extraction; this is the backstop.)
        if (extracted_.load(std::memory_order_relaxed)) return false;
        if (!ring_.push({beat_time_s, rr_s})) return false;
        note_newest(beat_time_s);
        return true;
    }

    /// Beats waiting in the ring (cheap; the scheduler polls this).
    /// Extracted sessions report none -- the scheduler then never assigns
    /// them, without knowing migration exists.
    bool has_pending() const noexcept {
        return !extracted_.load(std::memory_order_relaxed) && !ring_.empty();
    }

    /// Migration: snapshot the complete run-time state and retire this
    /// session (ring drained into the state; further ingest rejected;
    /// has_pending() false forever).  Caller must hold the manager's
    /// scheduler quiescent (session_manager::extract_session does) and
    /// have stopped this session's producer.  One-shot.
    session_runtime_state extract();
    bool extracted() const noexcept {
        return extracted_.load(std::memory_order_relaxed);
    }

    /// The configuration this session was admitted with (hand it to the
    /// adopting manager together with the extracted state).
    const session_config& session_cfg() const noexcept { return cfg_; }

    // ---- drain (the scheduler's side) --------------------------------
    //
    // A pass drains a session with buffered ingest only when it is
    // ready(): due (draining may close a window) or unable to wait.  Every
    // other session keeps its beats in the ring until a later pass; they
    // close nothing before the window end, so waiting changes no result.
    //
    // A drained session's beats go through the staged lockstep: the
    // scheduler pumps each session of a drain unit until it *stages* a
    // cut window, groups staged windows by analysis system, runs each
    // group through psa_system::analyze_window_batched (mesh FFTs
    // interleaved one per SIMD lane), then finishes every staged window
    // and pumps again until the ring is dry.  This is the only path that
    // analyzes windows; completed windows are folded into the caller's
    // fleet_partial (and the local report log when keep_reports), with
    // the battery drained and the governor run at every window boundary.
    // The session journals its popped beats itself, before the reports
    // they close.
    //
    // Beats reach the monitor one at a time in ring order and every window
    // is analyzed before the next beat of its session lands, so
    // per-session results -- reports, governor schedule, journal order,
    // battery trace -- are a pure function of the beat stream, whatever
    // the pump cadence or the grouping.

    enum class pump_status {
        staged,  ///< a window is cut and awaiting analysis
        idle,    ///< ring drained, nothing staged: this pass is done
    };

    /// Pop beats until a window stages or the ring empties; completed
    /// windows fold into `acc`.  Resumes report collection after
    /// previously finished windows.  Scheduler-thread only.
    pump_status pump_to_stage(fleet_partial& acc);

    /// The newest beat time the producer has pushed has reached the
    /// monitor's next window end, so draining may close a window.  Exact
    /// in the direction that matters: when a session is not due, every
    /// beat it buffered before the test lies before that end.  (A due
    /// session may still close nothing, e.g. when that beat is malformed;
    /// the drain handles it.)
    bool due() const noexcept {
        return newest_.load(std::memory_order_relaxed) >=
               monitor_.next_window_end();
    }

    /// A pass drains this session now (see the section comment): it is
    /// due, or its beats cannot wait -- its monitor has not started (the
    /// first beat sets the window phase) or its ring is at least half
    /// full.
    bool ready() const noexcept {
        return due() || !monitor_.started() ||
               ring_.size() >= ring_.capacity() / 2;
    }

    bool has_staged_window() const noexcept { return monitor_.has_staged(); }
    /// The staged window as a batchable job (valid until finish_staged).
    lomb::window_job staged_job() noexcept { return monitor_.staged_job(); }
    /// System currently analyzing this session's windows.  Two sessions
    /// may batch together when their systems run the same (plan-cached)
    /// engine object with equal lomb options -- then either system's
    /// analyze_window_batched performs the other's exact arithmetic.
    const core::psa_system* staged_system() const noexcept {
        return &monitor_.system();
    }
    static bool batch_compatible(const core::psa_system& a,
                                 const core::psa_system& b) noexcept {
        return &a.engine() == &b.engine() &&
               a.config().lomb == b.config().lomb;
    }
    /// Complete the staged window with the job's post-analysis ok flag.
    void finish_staged(bool ok) { monitor_.finish_staged(ok); }

    /// Re-select the analysis mode for a new static distortion budget via
    /// the session's controller (no-op without one; governed sessions
    /// derive their budget from battery state instead).  Takes effect
    /// from the next window.  Scheduler-thread only.
    void set_quality_budget(real qdes_error_pct);

    const core::streaming_monitor& monitor() const noexcept { return monitor_; }
    const core::psa_config& config() const noexcept { return monitor_.config(); }
    const core::quality_governor& governor() const noexcept { return governor_; }
    bool governed() const noexcept { return governor_.runtime_enabled(); }

    std::span<const core::window_report> reports() const noexcept {
        return {reports_.data(), reports_.size()};
    }
    /// Applied governor switches in order (scheduler-thread only; the
    /// serial-replay schedule).
    std::span<const mode_switch_event> switch_log() const noexcept {
        return {switch_log_.data(), switch_log_.size()};
    }

    std::uint64_t beats_ingested() const noexcept { return beats_ingested_; }
    /// Beats the full ring rejected, including the lifetime count carried
    /// in by an adoption (the ring itself starts fresh on the new shard).
    std::uint64_t beats_dropped() const noexcept {
        return dropped_carry_ + ring_.dropped();
    }
    /// Beats discarded because they violated the monitor's contract
    /// (non-positive RR, non-monotonic time).  Atomic so the fleet
    /// snapshot can read it while a worker drains.
    std::uint64_t beats_rejected() const noexcept {
        return beats_rejected_.load(std::memory_order_relaxed);
    }
    std::uint64_t windows_completed() const noexcept { return windows_; }

    // Quality columns for fleet snapshots (safe concurrently with a drain).
    std::uint64_t mode_switches() const noexcept {
        return switches_.load(std::memory_order_relaxed);
    }
    core::engine_class current_mode() const noexcept {
        return current_mode_.load(std::memory_order_relaxed);
    }
    real battery_fraction() const noexcept {
        return battery_.charge_fraction();
    }
    const energy::battery_state& battery() const noexcept { return battery_; }

private:
    /// Poll completed windows: accumulate, drain battery, run governor.
    void collect_windows(fleet_partial& acc);

    /// Hand staged beats to the journal in one batched append (no-op when
    /// nothing is staged).  Called before any report record and at drain
    /// exit, so journaled beats always precede the reports they produced
    /// and the stage is empty whenever the session is idle.
    void flush_journal_stage();

    /// Journal-stage one popped beat and feed it to the monitor;
    /// malformed beats are counted and dropped.
    void push_beat(const beat_sample& s);

    /// Producer side: raise the running maximum due() compares against.
    void note_newest(real t) noexcept {
        if (t > newest_.load(std::memory_order_relaxed))
            newest_.store(t, std::memory_order_relaxed);
    }

    session_config cfg_;
    core::quality_governor governor_;
    beat_ring ring_;
    core::streaming_monitor monitor_;
    energy::battery_state battery_;
    std::vector<core::window_report> reports_;
    std::vector<mode_switch_event> switch_log_;
    /// Beats popped since the last batched journal append; bounded by the
    /// stage cap in session.cpp, reserved up front when journaling.
    std::vector<journal::beat_event> journal_stage_;
    /// Newest beat time ever pushed into the ring (producer-written).
    /// Relaxed is enough: due() only decides whether a pass drains now;
    /// a drain pops every buffered beat whatever it read.
    std::atomic<real> newest_{-std::numeric_limits<real>::infinity()};
    std::uint64_t beats_ingested_ = 0;
    std::atomic<std::uint64_t> beats_rejected_{0};
    std::uint64_t windows_ = 0;
    std::atomic<std::uint64_t> switches_{0};
    std::atomic<core::engine_class> current_mode_;
    /// Lifetime drop count carried in by an adoption (the new ring's own
    /// counter starts at zero and adds on top).
    std::uint64_t dropped_carry_ = 0;
    /// Set once by extract(); the session is a tombstone afterwards.
    std::atomic<bool> extracted_{false};
};

}  // namespace qpsa::service
