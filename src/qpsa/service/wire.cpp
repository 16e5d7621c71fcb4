// fleet_snapshot binary wire format (fleet_stats.hpp declares the API).
//
// Layout (all integers little-endian, doubles as raw IEEE-754 bits):
//
//   u32  magic "QPFS"
//   u16  version (fleet_wire_version)
//   u16  engine-kind slot count at serialization time
//   u64  windows, beats, arrhythmia_windows
//   energy totals: u64 windows; 8 x u64 op counts (adds, muls, divs,
//        sqrts, cmps, trigs, loads, stores); f64 cycles, time_nominal_s,
//        energy_nominal_j, energy_vfs_j
//   per-engine tallies: slot-count x { u64 windows, u64 beats, f64 energy }
//   u64  beats_dropped, beats_rejected, beats_overwritten
//   drop alarms: u64 n; n x { u64 session_id, dropped, rejected,
//        overwritten }
//   u64  mode_switches; f64 battery_fraction_min
//   quality rows: u64 n; n x { u64 session_id, u64 mode_switches,
//        u8 current_mode, f64 battery_fraction }
//   f64  lf_sum, hf_sum, ratio_sum
//   v2+: u64 high_water_alarms; u64 journal_appends, journal_bytes,
//        journal_fsyncs, journal_torn_tails
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
// default to zero; versions newer than the build are rejected.
// serialize(version) emits any older layout for mixed-version fleets.
//
// This file also implements session_runtime_state's encoding (the live-
// migration transport unit, session_state.hpp):
//
//   u32  magic "QPSS"
//   u16  version (session_state_wire_version)
//   u64  global_id; u64 seed
//   u16  patient_id length; bytes
//   ring: u64 n; n x { f64 t, f64 rr }
//   monitor: u64 n_buffered; n x { f64 t, f64 rr };
//            u64 n_pending; n x window_report;
//            u64 n_history; n x window_report;
//            f64 next_window_start; u8 started;
//            u64 windows_completed, beats_seen
//   governor: u64 current_index (~0 = none), windows_seen,
//            windows_since_switch, switches
//   f64  battery_charge_j
//   u64  beats_ingested, beats_rejected, beats_dropped,
//        beats_overwritten, windows_completed, high_water_alarms
//   switch log: u64 n; n x { u64 window_index, u64 mode_index }
//   reports: u64 n; n x window_report
//
// window_report encoding: f64 t_start, t_end; f64 ulf, lf, hf, total;
// u8 diagnosis; 8 x u64 op counts; u64 beats; u8 engine.
#include <bit>
#include <cstring>

#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session_state.hpp"

namespace qpsa::service {

namespace {

constexpr std::uint32_t wire_magic = 0x53465051;  // "QPFS" little-endian

class writer {
public:
    explicit writer(std::vector<std::uint8_t>& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) { raw(v); }
    void u32(std::uint32_t v) { raw(v); }
    void u64(std::uint64_t v) { raw(v); }
    void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }

private:
    template <typename T>
    void raw(T v) {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t>& out_;
};

class reader {
public:
    explicit reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::uint8_t u8() { return take<std::uint8_t>(); }
    std::uint16_t u16() { return take<std::uint16_t>(); }
    std::uint32_t u32() { return take<std::uint32_t>(); }
    std::uint64_t u64() { return take<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }

    /// Guard for vector counts: each entry needs at least
    /// `entry_bytes`, so a count the remaining payload cannot hold is
    /// corruption, not a huge allocation request.
    std::uint64_t count(std::size_t entry_bytes) {
        const std::uint64_t n = u64();
        if (entry_bytes != 0 && n > remaining() / entry_bytes)
            throw wire_error("fleet_snapshot wire: element count exceeds payload");
        return n;
    }

    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

    void expect_exhausted() const {
        if (pos_ != bytes_.size())
            throw wire_error("fleet_snapshot wire: trailing bytes");
    }

private:
    template <typename T>
    T take() {
        if (bytes_.size() - pos_ < sizeof(T))
            throw wire_error("fleet_snapshot wire: truncated payload");
        T v{};
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | (static_cast<T>(bytes_[pos_ + i]) << (8 * i)));
        pos_ += sizeof(T);
        return v;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

void write_ops(writer& w, const counting::op_counts& ops) {
    w.u64(ops.adds);
    w.u64(ops.muls);
    w.u64(ops.divs);
    w.u64(ops.sqrts);
    w.u64(ops.cmps);
    w.u64(ops.trigs);
    w.u64(ops.loads);
    w.u64(ops.stores);
}

counting::op_counts read_ops(reader& r) {
    counting::op_counts ops;
    ops.adds = r.u64();
    ops.muls = r.u64();
    ops.divs = r.u64();
    ops.sqrts = r.u64();
    ops.cmps = r.u64();
    ops.trigs = r.u64();
    ops.loads = r.u64();
    ops.stores = r.u64();
    return ops;
}

}  // namespace

std::vector<std::uint8_t> fleet_snapshot::serialize(
    std::uint16_t version) const {
    QPSA_EXPECTS(version >= 1 && version <= fleet_wire_version);
    std::vector<std::uint8_t> out;
    // Header + scalars + typical alarm/quality payloads fit well under
    // this for fleets of a few hundred sessions; one reserve avoids the
    // doubling churn.
    out.reserve(256 + 37 * drop_alarms.size() + 25 * quality.size());
    writer w(out);

    w.u32(wire_magic);
    w.u16(version);
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
        w.u8(static_cast<std::uint8_t>(q.current_mode));
        w.f64(q.battery_fraction);
    }

    w.f64(lf_sum);
    w.f64(hf_sum);
    w.f64(ratio_sum);

    // Version tails are strictly additive; emitting an older version
    // means stopping before the columns it predates.
    if (version >= 2) {
        w.u64(high_water_alarms);
        w.u64(journal_appends);
        w.u64(journal_bytes);
        w.u64(journal_fsyncs);
        w.u64(journal_torn_tails);
    }
    if (version >= 3) {
        w.u64(sessions_migrated_in);
        w.u64(sessions_migrated_out);
    }
    if (version >= 4) {
        w.u64(hop_hits);
        w.u64(hop_misses);
        w.u64(hop_bytes);
    }
    if (version >= 5) {
        w.u64(windows_stolen);
        w.u64(lane_slots_filled);
        w.u64(lane_slots_offered);
    }
    return out;
}

fleet_snapshot fleet_snapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
    reader r(bytes);

    if (r.u32() != wire_magic)
        throw wire_error("fleet_snapshot wire: bad magic");
    const std::uint16_t version = r.u16();
    if (version == 0 || version > fleet_wire_version)
        throw wire_error("fleet_snapshot wire: unknown version " +
                         std::to_string(version));
    const std::uint16_t kinds = r.u16();
    if (kinds > core::engine_class_count)
        throw wire_error(
            "fleet_snapshot wire: snapshot carries " + std::to_string(kinds) +
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
    const std::uint64_t n_alarms = r.count(4 * sizeof(std::uint64_t));
    snap.drop_alarms.resize(n_alarms);
    for (session_drop_alarm& a : snap.drop_alarms) {
        a.session_id = r.u64();
        a.dropped = r.u64();
        a.rejected = r.u64();
        a.overwritten = r.u64();
    }

    snap.mode_switches = r.u64();
    snap.battery_fraction_min = r.f64();
    const std::uint64_t n_quality = r.count(3 * sizeof(std::uint64_t) + 1);
    snap.quality.resize(n_quality);
    for (session_quality& q : snap.quality) {
        q.session_id = r.u64();
        q.mode_switches = r.u64();
        const std::uint8_t mode = r.u8();
        if (mode >= core::engine_class_count)
            throw wire_error("fleet_snapshot wire: invalid engine class " +
                             std::to_string(mode));
        q.current_mode = static_cast<core::engine_class>(mode);
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

constexpr std::uint32_t session_state_magic = 0x53535051;  // "QPSS" LE
constexpr std::uint16_t session_state_wire_version = 1;

void write_report(writer& w, const core::window_report& rep) {
    w.f64(rep.t_start);
    w.f64(rep.t_end);
    w.f64(rep.bands.ulf);
    w.f64(rep.bands.lf);
    w.f64(rep.bands.hf);
    w.f64(rep.bands.total);
    w.u8(static_cast<std::uint8_t>(rep.diagnosis));
    write_ops(w, rep.ops);
    w.u64(rep.beats);
    w.u8(static_cast<std::uint8_t>(rep.engine));
}

core::window_report read_report(reader& r) {
    core::window_report rep;
    rep.t_start = r.f64();
    rep.t_end = r.f64();
    rep.bands.ulf = r.f64();
    rep.bands.lf = r.f64();
    rep.bands.hf = r.f64();
    rep.bands.total = r.f64();
    const std::uint8_t diag = r.u8();
    if (diag > static_cast<std::uint8_t>(hrv::diagnosis::normal))
        throw wire_error("session_state wire: invalid diagnosis " +
                         std::to_string(diag));
    rep.diagnosis = static_cast<hrv::diagnosis>(diag);
    rep.ops = read_ops(r);
    rep.beats = static_cast<std::size_t>(r.u64());
    const std::uint8_t engine = r.u8();
    if (engine >= core::engine_class_count)
        throw wire_error("session_state wire: invalid engine class " +
                         std::to_string(engine));
    rep.engine = static_cast<core::engine_class>(engine);
    return rep;
}

// Serialized footprint of one window_report: 6 f64 + 1 u8 + 8 u64 ops +
// u64 beats + u8 engine.
constexpr std::size_t report_wire_bytes = 6 * 8 + 1 + 8 * 8 + 8 + 1;

void write_reports(writer& w, const std::vector<core::window_report>& v) {
    w.u64(v.size());
    for (const core::window_report& rep : v) write_report(w, rep);
}

std::vector<core::window_report> read_reports(reader& r) {
    const std::uint64_t n = r.count(report_wire_bytes);
    std::vector<core::window_report> v(n);
    for (core::window_report& rep : v) rep = read_report(r);
    return v;
}

}  // namespace

std::vector<std::uint8_t> session_runtime_state::serialize() const {
    std::vector<std::uint8_t> out;
    out.reserve(256 + 16 * (ring.size() + monitor.buffered.size()) +
                report_wire_bytes * (monitor.pending.size() +
                                     monitor.history.size() + reports.size()));
    writer w(out);

    w.u32(session_state_magic);
    w.u16(session_state_wire_version);
    w.u64(global_id);
    w.u64(seed);
    w.u16(static_cast<std::uint16_t>(patient_id.size()));
    for (const char c : patient_id) w.u8(static_cast<std::uint8_t>(c));

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
    w.u8(monitor.started ? 1 : 0);
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
    reader r(bytes);

    if (r.u32() != session_state_magic)
        throw wire_error("session_state wire: bad magic");
    const std::uint16_t version = r.u16();
    if (version == 0 || version > session_state_wire_version)
        throw wire_error("session_state wire: unknown version " +
                         std::to_string(version));

    session_runtime_state st;
    st.global_id = r.u64();
    st.seed = r.u64();
    const std::uint16_t name_len = r.u16();
    st.patient_id.resize(name_len);
    for (char& c : st.patient_id) c = static_cast<char>(r.u8());

    const std::uint64_t n_ring = r.count(2 * 8);
    st.ring.resize(n_ring);
    for (beat_sample& s : st.ring) {
        s.t = r.f64();
        s.rr = r.f64();
    }

    const std::uint64_t n_buffered = r.count(2 * 8);
    st.monitor.buffered.resize(n_buffered);
    for (auto& [t, rr] : st.monitor.buffered) {
        t = r.f64();
        rr = r.f64();
    }
    st.monitor.pending = read_reports(r);
    st.monitor.history = read_reports(r);
    st.monitor.next_window_start = r.f64();
    st.monitor.started = r.u8() != 0;
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

    const std::uint64_t n_switches = r.count(2 * 8);
    st.switch_log.resize(n_switches);
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
    writer w(out);
    w.u64(reports.size());
    for (const core::window_report& rep : reports) write_report(w, rep);
    return out;
}

std::vector<core::window_report> deserialize_reports(
    std::span<const std::uint8_t> bytes) {
    reader r(bytes);
    std::vector<core::window_report> v = read_reports(r);
    r.expect_exhausted();
    return v;
}

}  // namespace qpsa::service
