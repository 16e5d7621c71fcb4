// fleet_snapshot binary wire format (fleet_stats.hpp declares the API).
//
// Layout (encoding rules: byte_codec.hpp):
//
//   u32  magic "QPFS"
//   u16  version (fleet_wire_version)
//   u16  engine-kind slot count at serialization time
//   u64  windows, beats, arrhythmia_windows
//   energy totals: u64 windows; op_counts; f64 cycles, time_nominal_s,
//        energy_nominal_j, energy_vfs_j
//   per-engine tallies: slot-count x { u64 windows, u64 beats, f64 energy }
//   u64  beats_dropped, beats_rejected, beats_overwritten
//   drop alarms: u64 n; n x { u64 session_id, dropped, rejected,
//        overwritten }
//        (beats_overwritten and overwritten are retired overwrite-ring
//        telemetry: 0 from live fleets, still encoded so existing
//        payloads load)
//   u64  mode_switches; f64 battery_fraction_min
//   quality rows: u64 n; n x { u64 session_id, u64 mode_switches,
//        engine_class current_mode, f64 battery_fraction }
//   f64  lf_sum, hf_sum, ratio_sum
//   v2+: u64 high_water_alarms (retired high-water telemetry: 0 from
//        live fleets, still encoded so existing payloads load);
//        u64 journal_appends, journal_bytes, journal_fsyncs,
//        journal_torn_tails
//   v3+: u64 sessions_migrated_in, sessions_migrated_out
//   v4+: u64 hop_hits, hop_misses, hop_bytes (retired hop-cache
//        telemetry: 0 from live fleets, kept so v4/v5 payloads load)
//   v5+: u64 windows_stolen, lane_slots_filled, lane_slots_offered
//
// A snapshot serialized by a build with fewer engine kinds than the
// reader loads into the wider table (new kinds tally zero); one with
// more kinds than the reader knows is rejected -- the reader cannot
// represent those rows losslessly.  Version skew follows the additive
// rule: an older payload (shorter tail) still loads, the new columns
// default to zero; versions newer than the build are rejected.  The
// writer emits only the current version.
//
// This file also implements session_runtime_state's encoding (the live-
// migration transport unit, session_state.hpp):
//
//   u32  magic "QPSS"
//   u16  version (session_state_wire_version)
//   u64  global_id; u64 seed
//   str  patient_id
//   ring: u64 n; n x { f64 t, f64 rr }
//   monitor: u64 n_buffered; n x { f64 t, f64 rr };
//            u64 n_pending; n x window_report;
//            u64 n_history; n x window_report;
//            f64 next_window_start; bool started;
//            u64 windows_completed, beats_seen
//   governor: u64 current_index (~0 = none), windows_seen,
//            windows_since_switch, switches
//   f64  battery_charge_j
//   u64  beats_ingested, beats_rejected, beats_dropped,
//        beats_overwritten, windows_completed, high_water_alarms
//        (beats_overwritten and high_water_alarms are retired: 0 from
//        live fleets, still encoded so existing payloads load)
//   switch log: u64 n; n x { u64 window_index, u64 mode_index }
//   reports: u64 n; n x window_report
//
// op_counts, engine_class and window_report: byte_codec.hpp.
#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session_state.hpp"

namespace qpsa::service {

namespace {

constexpr std::uint32_t wire_magic = 0x53465051;  // "QPFS" little-endian
constexpr const char* snapshot_context = "fleet_snapshot wire";

constexpr std::uint32_t session_state_magic = 0x53535051;  // "QPSS" LE
constexpr std::uint16_t session_state_wire_version = 1;
constexpr const char* state_context = "session_state wire";

}  // namespace

std::vector<std::uint8_t> fleet_snapshot::serialize() const {
    std::vector<std::uint8_t> out;
    // Header + scalars + typical alarm/quality payloads fit well under
    // this for fleets of a few hundred sessions; one reserve avoids the
    // doubling churn.
    out.reserve(256 + 37 * drop_alarms.size() + 25 * quality.size());
    byte_writer w(out);
    write(w);
    return out;
}

void fleet_snapshot::write(byte_writer& w) const {
    w.u32(wire_magic);
    w.u16(fleet_wire_version);
    w.u16(static_cast<std::uint16_t>(core::engine_class_count));

    w.u64(windows);
    w.u64(beats);
    w.u64(arrhythmia_windows);

    w.u64(energy.windows);
    write_ops(w, energy.ops);
    w.f64(energy.cycles);
    w.f64(energy.time_nominal_s);
    w.f64(energy.energy_nominal_j);
    w.f64(energy.energy_vfs_j);

    for (const engine_tally& tally : by_engine) {
        w.u64(tally.windows);
        w.u64(tally.beats);
        w.f64(tally.energy_nominal_j);
    }

    w.u64(beats_dropped);
    w.u64(beats_rejected);
    w.u64(beats_overwritten);
    w.u64(drop_alarms.size());
    for (const session_drop_alarm& a : drop_alarms) {
        w.u64(a.session_id);
        w.u64(a.dropped);
        w.u64(a.rejected);
        w.u64(a.overwritten);
    }

    w.u64(mode_switches);
    w.f64(battery_fraction_min);
    w.u64(quality.size());
    for (const session_quality& q : quality) {
        w.u64(q.session_id);
        w.u64(q.mode_switches);
        w.enumerator(q.current_mode);
        w.f64(q.battery_fraction);
    }

    w.f64(lf_sum);
    w.f64(hf_sum);
    w.f64(ratio_sum);

    // v2+ telemetry, v3+ migration, v4+ hop-cache and v5+ drain columns.
    w.u64(high_water_alarms);
    w.u64(journal_appends);
    w.u64(journal_bytes);
    w.u64(journal_fsyncs);
    w.u64(journal_torn_tails);
    w.u64(sessions_migrated_in);
    w.u64(sessions_migrated_out);
    w.u64(hop_hits);
    w.u64(hop_misses);
    w.u64(hop_bytes);
    w.u64(windows_stolen);
    w.u64(lane_slots_filled);
    w.u64(lane_slots_offered);
}

fleet_snapshot fleet_snapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
    byte_reader r(bytes, snapshot_context);

    if (r.u32() != wire_magic) r.fail("bad magic");
    const std::uint16_t version = r.u16();
    if (version == 0 || version > fleet_wire_version)
        r.fail("unknown version " + std::to_string(version));
    const std::uint16_t kinds = r.u16();
    if (kinds > core::engine_class_count)
        r.fail("snapshot carries " + std::to_string(kinds) +
               " engine kinds, this build knows " +
               std::to_string(core::engine_class_count));

    fleet_snapshot snap;
    snap.windows = r.u64();
    snap.beats = r.u64();
    snap.arrhythmia_windows = r.u64();

    snap.energy.windows = r.u64();
    snap.energy.ops = read_ops(r);
    snap.energy.cycles = r.f64();
    snap.energy.time_nominal_s = r.f64();
    snap.energy.energy_nominal_j = r.f64();
    snap.energy.energy_vfs_j = r.f64();

    for (std::uint16_t i = 0; i < kinds; ++i) {
        engine_tally& tally = snap.by_engine[i];
        tally.windows = r.u64();
        tally.beats = r.u64();
        tally.energy_nominal_j = r.f64();
    }

    snap.beats_dropped = r.u64();
    snap.beats_rejected = r.u64();
    snap.beats_overwritten = r.u64();
    snap.drop_alarms.resize(r.count(4 * 8));
    for (session_drop_alarm& a : snap.drop_alarms) {
        a.session_id = r.u64();
        a.dropped = r.u64();
        a.rejected = r.u64();
        a.overwritten = r.u64();
    }

    snap.mode_switches = r.u64();
    snap.battery_fraction_min = r.f64();
    snap.quality.resize(r.count(3 * 8 + 1));
    for (session_quality& q : snap.quality) {
        q.session_id = r.u64();
        q.mode_switches = r.u64();
        q.current_mode = read_engine(r);
        q.battery_fraction = r.f64();
    }

    snap.lf_sum = r.f64();
    snap.hf_sum = r.f64();
    snap.ratio_sum = r.f64();

    if (version >= 2) {
        snap.high_water_alarms = r.u64();
        snap.journal_appends = r.u64();
        snap.journal_bytes = r.u64();
        snap.journal_fsyncs = r.u64();
        snap.journal_torn_tails = r.u64();
    }
    if (version >= 3) {
        snap.sessions_migrated_in = r.u64();
        snap.sessions_migrated_out = r.u64();
    }
    if (version >= 4) {
        snap.hop_hits = r.u64();
        snap.hop_misses = r.u64();
        snap.hop_bytes = r.u64();
    }
    if (version >= 5) {
        snap.windows_stolen = r.u64();
        snap.lane_slots_filled = r.u64();
        snap.lane_slots_offered = r.u64();
    }
    r.expect_exhausted();
    return snap;
}

namespace {

void write_reports(byte_writer& w, std::span<const core::window_report> v) {
    w.u64(v.size());
    for (const core::window_report& rep : v) write_report(w, rep);
}

std::vector<core::window_report> read_reports(byte_reader& r) {
    std::vector<core::window_report> v(r.count(report_wire_bytes));
    for (core::window_report& rep : v) rep = read_report(r);
    return v;
}

}  // namespace

std::vector<std::uint8_t> session_runtime_state::serialize() const {
    std::vector<std::uint8_t> out;
    out.reserve(256 + 16 * (ring.size() + monitor.buffered.size()) +
                report_wire_bytes * (monitor.pending.size() +
                                     monitor.history.size() + reports.size()));
    byte_writer w(out);

    w.u32(session_state_magic);
    w.u16(session_state_wire_version);
    w.u64(global_id);
    w.u64(seed);
    w.str(patient_id);

    w.u64(ring.size());
    for (const beat_sample& s : ring) {
        w.f64(s.t);
        w.f64(s.rr);
    }

    w.u64(monitor.buffered.size());
    for (const auto& [t, rr] : monitor.buffered) {
        w.f64(t);
        w.f64(rr);
    }
    write_reports(w, monitor.pending);
    write_reports(w, monitor.history);
    w.f64(monitor.next_window_start);
    w.boolean(monitor.started);
    w.u64(monitor.windows_completed);
    w.u64(monitor.beats_seen);

    w.u64(governor.current_index);
    w.u64(governor.windows_seen);
    w.u64(governor.windows_since_switch);
    w.u64(governor.switches);

    w.f64(battery_charge_j);
    w.u64(beats_ingested);
    w.u64(beats_rejected);
    w.u64(beats_dropped);
    w.u64(beats_overwritten);
    w.u64(windows_completed);
    w.u64(high_water_alarms);

    w.u64(switch_log.size());
    for (const mode_switch_event& e : switch_log) {
        w.u64(e.window_index);
        w.u64(static_cast<std::uint64_t>(e.mode_index));
    }
    write_reports(w, reports);
    return out;
}

session_runtime_state session_runtime_state::deserialize(
    std::span<const std::uint8_t> bytes) {
    byte_reader r(bytes, state_context);

    if (r.u32() != session_state_magic) r.fail("bad magic");
    const std::uint16_t version = r.u16();
    if (version == 0 || version > session_state_wire_version)
        r.fail("unknown version " + std::to_string(version));

    session_runtime_state st;
    st.global_id = r.u64();
    st.seed = r.u64();
    st.patient_id = r.str();

    st.ring.resize(r.count(2 * 8));
    for (beat_sample& s : st.ring) {
        s.t = r.f64();
        s.rr = r.f64();
    }

    st.monitor.buffered.resize(r.count(2 * 8));
    for (auto& [t, rr] : st.monitor.buffered) {
        t = r.f64();
        rr = r.f64();
    }
    st.monitor.pending = read_reports(r);
    st.monitor.history = read_reports(r);
    st.monitor.next_window_start = r.f64();
    st.monitor.started = r.boolean();
    st.monitor.windows_completed = r.u64();
    st.monitor.beats_seen = r.u64();

    st.governor.current_index = r.u64();
    st.governor.windows_seen = r.u64();
    st.governor.windows_since_switch = r.u64();
    st.governor.switches = r.u64();

    st.battery_charge_j = r.f64();
    st.beats_ingested = r.u64();
    st.beats_rejected = r.u64();
    st.beats_dropped = r.u64();
    st.beats_overwritten = r.u64();
    st.windows_completed = r.u64();
    st.high_water_alarms = r.u64();

    st.switch_log.resize(r.count(2 * 8));
    for (mode_switch_event& e : st.switch_log) {
        e.window_index = r.u64();
        e.mode_index = static_cast<std::size_t>(r.u64());
    }
    st.reports = read_reports(r);
    r.expect_exhausted();
    return st;
}

std::vector<std::uint8_t> serialize_reports(
    std::span<const core::window_report> reports) {
    std::vector<std::uint8_t> out;
    byte_writer w(out);
    write_reports(w, reports);
    return out;
}

std::vector<core::window_report> deserialize_reports(
    std::span<const std::uint8_t> bytes) {
    byte_reader r(bytes, state_context);
    std::vector<core::window_report> v = read_reports(r);
    r.expect_exhausted();
    return v;
}

}  // namespace qpsa::service
