#include "qpsa/service/session.hpp"

#include "qpsa/journal/report_writer.hpp"
#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session_state.hpp"
#include "qpsa/service/thread_pool.hpp"

namespace qpsa::service {

namespace {

/// Resolve the configuration a session starts with: the QDES-selected
/// mode when the policy provides one, else the configured analysis.
core::psa_config initial_config(const session_config& cfg,
                                core::quality_governor& governor) {
    if (auto selected = governor.initial_config(cfg.analysis))
        return *std::move(selected);
    return cfg.analysis;
}

/// Staged beats per batched journal append: large enough to amortize the
/// writer mutex across a drain pass, small enough that the per-session
/// stage stays a few KiB.
constexpr std::size_t journal_stage_cap = 256;

}  // namespace

session::session(session_config cfg, core::system_factory factory)
    : cfg_(std::move(cfg)),
      governor_(cfg_.quality),
      ring_(cfg_.ingest_capacity),
      monitor_(initial_config(cfg_, governor_), cfg_.monitor,
               std::move(factory)),
      battery_(cfg_.battery) {
    QPSA_EXPECTS(cfg_.global_id != global_id_auto);
    current_mode_.store(monitor_.config().kind(), std::memory_order_relaxed);
    // Absorb the first few capacity doublings at admission time -- the
    // steady-state drain path is budgeted at ~zero allocations per window.
    if (cfg_.keep_reports) reports_.reserve(64);
    if (cfg_.journal != nullptr) journal_stage_.reserve(journal_stage_cap);
    if (governor_.runtime_enabled())
        switch_log_.reserve(cfg_.quality.controller->profiles().size() * 2);
    // The scheduler runs every window's analysis itself (batched across
    // sessions), so the monitor always stages its cut windows.
    monitor_.set_staging(true);
}

session::session(session_config cfg, core::system_factory factory,
                 const session_runtime_state& st)
    : session(std::move(cfg), std::move(factory)) {
    // Identity first: the restored governor position decides the analysis
    // config, which must be applied before the monitor state lands (the
    // monitor's next window then runs the mode the old shard was in).
    governor_.restore_state(st.governor);
    if (const core::mode_profile* mode = governor_.current()) {
        monitor_.set_config(mode->apply_to(cfg_.analysis));
        current_mode_.store(mode->kind(), std::memory_order_relaxed);
    }
    switches_.store(governor_.switches(), std::memory_order_relaxed);
    monitor_.restore_state(st.monitor);
    battery_.restore_charge(st.battery_charge_j);
    // Buffered beats re-enter through the ring so the next drain pass
    // replays them in order.  They fit by construction: the same-capacity
    // ring on the old shard held them.
    for (const beat_sample& s : st.ring) {
        ring_.push(s);
        note_newest(s.t);
    }
    beats_ingested_ = st.beats_ingested;
    beats_rejected_.store(st.beats_rejected, std::memory_order_relaxed);
    windows_ = st.windows_completed;
    dropped_carry_ = st.beats_dropped;
    switch_log_ = st.switch_log;
    if (cfg_.keep_reports) reports_ = st.reports;
}

session_runtime_state session::extract() {
    QPSA_EXPECTS(!extracted_.load(std::memory_order_relaxed));
    // Drains never run concurrently with extract (the manager holds its
    // pump mutex), so the journal stage is always flushed here.
    QPSA_EXPECTS(journal_stage_.empty());
    extracted_.store(true, std::memory_order_release);

    session_runtime_state st;
    st.global_id = id();
    st.patient_id = cfg_.patient_id;
    st.seed = cfg_.seed;
    beat_sample s;
    while (ring_.pop(s)) st.ring.push_back(s);
    st.monitor = monitor_.export_state();
    st.governor = governor_.export_state();
    st.battery_charge_j = battery_.charge_remaining_j();
    st.beats_ingested = beats_ingested_;
    st.beats_rejected = beats_rejected_.load(std::memory_order_relaxed);
    st.beats_dropped = beats_dropped();
    st.windows_completed = windows_;
    st.switch_log = switch_log_;
    st.reports = reports_;
    return st;
}

void session::collect_windows(fleet_partial& acc) {
    while (auto rep = monitor_.poll()) {
        ++windows_;
        const real psa_j = acc.add_report(*rep);
        battery_.drain_window(psa_j);
        if (const core::mode_profile* mode =
                governor_.on_window(battery_.charge_fraction())) {
            // Engine-kind switch through the shared plan cache (a hash
            // lookup -- the engines themselves are already built).
            monitor_.set_config(mode->apply_to(cfg_.analysis));
            current_mode_.store(mode->kind(), std::memory_order_relaxed);
            switches_.store(governor_.switches(), std::memory_order_relaxed);
            switch_log_.push_back({windows_, governor_.current_index()});
        }
        // Journal after the governor so the record carries the session's
        // *post-window* state -- battery and mode only change at window
        // boundaries, so the last record's post-state is exactly what a
        // live fleet snapshot would read, which is what lets a recovery
        // scan rebuild the quality columns bit for bit.  Staged beats go
        // out first so the beats that produced this window precede it in
        // the log.
        if (cfg_.journal != nullptr) {
            flush_journal_stage();
            cfg_.journal->append_report(
                {id(), *rep, battery_.charge_fraction(),
                 switches_.load(std::memory_order_relaxed),
                 current_mode_.load(std::memory_order_relaxed)});
        }
        if (cfg_.keep_reports) reports_.push_back(std::move(*rep));
    }
}

session::pump_status session::pump_to_stage(fleet_partial& acc) {
    QPSA_EXPECTS(!monitor_.has_staged());
    // Analysis scratch comes from the worker currently draining us (the
    // session may land on a different worker next pass; the monitor
    // re-resolves per window, so migration is safe).  Off-pool callers
    // (tests draining inline) get nullptr and use the monitor's private
    // workspace -- results are bit-identical either way.
    monitor_.set_scratch(thread_pool::current_workspace_cache());
    // Windows the previous batched round finished are collected here:
    // right after the beat that closed them, before the next beat of this
    // session lands.
    collect_windows(acc);
    // One beat at a time, windows collected after every push: the
    // governor then reacts at exact window boundaries in *beat* order, so
    // a governed session's mode schedule is a pure function of its beat
    // stream -- independent of pump cadence, batch shape or worker count
    // (and replayable serially from the switch log, bit for bit).
    beat_sample s;
    while (ring_.pop(s)) {
        push_beat(s);
        if (monitor_.has_staged()) return pump_status::staged;
        collect_windows(acc);
    }
    if (cfg_.journal != nullptr) flush_journal_stage();
    return pump_status::idle;
}

void session::push_beat(const beat_sample& s) {
    // Journal the beat before the monitor sees it: rejected beats are
    // recorded too, so a replay reproduces the reject counts and every
    // downstream window identically.  Beats are staged locally and
    // appended in batches -- taking the shard writer's mutex per beat is
    // measurably slower than the analysis itself.
    if (cfg_.journal != nullptr) {
        journal_stage_.push_back({id(), s.t, s.rr});
        if (journal_stage_.size() >= journal_stage_cap) flush_journal_stage();
    }
    try {
        monitor_.push_beat(s.t, s.rr);
        ++beats_ingested_;
    } catch (const contract_error&) {
        // Malformed beat (non-positive RR, non-monotonic time): a fleet
        // node drops it rather than poisoning the worker.
        beats_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
}

void session::flush_journal_stage() {
    if (journal_stage_.empty()) return;
    cfg_.journal->append_beats(journal_stage_);
    journal_stage_.clear();
}

void session::set_quality_budget(real qdes_error_pct) {
    if (const core::mode_profile* mode =
            governor_.set_static_budget(qdes_error_pct)) {
        monitor_.set_config(mode->apply_to(cfg_.analysis));
        current_mode_.store(mode->kind(), std::memory_order_relaxed);
        return;
    }
    // Budget <= 0 disables static QDES entirely: back to the configured
    // mode, mirroring what a freshly admitted session would run.  (A
    // governed session ignores static budgets; its loop stays closed.)
    if (governor_.has_controller() && !governor_.runtime_enabled() &&
        qdes_error_pct <= 0.0) {
        monitor_.set_config(cfg_.analysis);
        current_mode_.store(cfg_.analysis.kind(), std::memory_order_relaxed);
    }
}

}  // namespace qpsa::service
