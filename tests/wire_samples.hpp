// Shared test fixture: one sample of every qpsa byte format, built
// through the public encoders only -- a fleet_snapshot with alarm and
// quality rows, a session_runtime_state with every vector non-empty, a
// journal file holding every record type, and the hello / admit /
// beat_batch / session_state net frames exactly as ingest_client and
// ingest_server put them on the socket.  wire_golden_test pins their
// sizes and CRC-32s; wire_fuzz_test mutates them.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qpsa/journal/report_writer.hpp"
#include "qpsa/net/ingest_client.hpp"
#include "qpsa/net/ingest_server.hpp"
#include "qpsa/service/service.hpp"
#include "quality_ladder.hpp"

namespace qpsa::test {

using bytes = std::vector<std::uint8_t>;

inline core::window_report sample_report(std::uint64_t salt) {
    core::window_report rep;
    rep.t_start = 60.0 * static_cast<real>(salt);
    rep.t_end = rep.t_start + 120.0;
    rep.bands.ulf = 1.0 / 3.0;
    rep.bands.lf = 2.0 / 7.0 + static_cast<real>(salt);
    rep.bands.hf = 1.0e-17;
    rep.bands.total = 0.625;
    rep.diagnosis = salt % 2 == 0 ? hrv::diagnosis::normal
                                   : hrv::diagnosis::sinus_arrhythmia;
    rep.ops.adds = 11 + salt;
    rep.ops.muls = 22;
    rep.ops.divs = 3;
    rep.ops.sqrts = 4;
    rep.ops.cmps = 55;
    rep.ops.trigs = 6;
    rep.ops.loads = 777;
    rep.ops.stores = 88;
    rep.beats = 123 + salt;
    rep.engine = salt % 2 == 0 ? core::engine_class::fixed_q15
                               : core::engine_class::wavelet;
    return rep;
}

inline service::fleet_snapshot sample_snapshot() {
    service::fleet_snapshot s;
    s.windows = 40;
    s.beats = 6000;
    s.arrhythmia_windows = 7;
    s.energy.windows = 40;
    s.energy.ops = sample_report(3).ops;
    s.energy.cycles = 1.5e6;
    s.energy.time_nominal_s = 0.125;
    s.energy.energy_nominal_j = 2.5e-3;
    s.energy.energy_vfs_j = 1.75e-3;
    s.by_engine[0] = {30, 4500, 2.0e-3};
    s.by_engine[2] = {10, 1500, 0.5e-3};
    s.beats_dropped = 5;
    s.beats_rejected = 2;
    s.beats_overwritten = 1;
    s.drop_alarms = {{3, 5, 0, 1}, {9, 0, 2, 0}};
    s.mode_switches = 4;
    s.battery_fraction_min = 0.375;
    s.quality = {{1, 3, core::engine_class::fixed_q15, 0.375},
                 {2, 1, core::engine_class::wavelet, 0.75}};
    s.high_water_alarms = 6;
    s.journal_appends = 100;
    s.journal_bytes = 4096;
    s.journal_fsyncs = 2;
    s.journal_torn_tails = 1;
    s.sessions_migrated_in = 1;
    s.sessions_migrated_out = 2;
    s.windows_stolen = 8;
    s.lane_slots_filled = 30;
    s.lane_slots_offered = 32;
    s.lf_sum = 12.5;
    s.hf_sum = 1.0 / 3.0;
    s.ratio_sum = 37.5;
    return s;
}

/// `s` as an older peer's fleet_snapshot payload: the current encoding
/// cut at `version`'s column boundary, its version field rewritten.
/// Every version after v1 appended whole u64 columns at the tail
/// (wire.cpp), so an older layout is exactly such a prefix.
inline bytes snapshot_as_version(const service::fleet_snapshot& s,
                                 std::uint16_t version) {
    // u64 columns appended by v2 (telemetry), v3 (migration), v4 (hop
    // cache) and v5 (drain scheduler).
    constexpr std::size_t appended[] = {0, 0, 5, 2, 3, 3};
    static_assert(std::size(appended) == service::fleet_wire_version + 1u);
    EXPECT_TRUE(version >= 1 && version <= service::fleet_wire_version);
    bytes b = s.serialize();
    std::size_t cut = 0;
    for (std::size_t v = version + 1u; v <= service::fleet_wire_version; ++v)
        cut += 8 * appended[v];
    b.resize(b.size() - cut);
    // The u16 version follows the u32 magic, little-endian.
    b[4] = static_cast<std::uint8_t>(version & 0xFF);
    b[5] = static_cast<std::uint8_t>(version >> 8);
    return b;
}

inline service::session_runtime_state sample_state() {
    service::session_runtime_state st;
    st.global_id = 42;
    st.patient_id = "patient-42";
    st.seed = 0xDEADBEEFCAFEF00DULL;
    st.ring = {{100.25, 0.8125}, {101.0, 0.75}};
    st.monitor.buffered = {{90.5, 0.8}, {91.25, 0.875}};
    st.monitor.pending = {sample_report(1)};
    st.monitor.history = {sample_report(0), sample_report(1)};
    st.monitor.next_window_start = 60.0;
    st.monitor.started = true;
    st.monitor.windows_completed = 3;
    st.monitor.beats_seen = 321;
    st.governor.current_index = 1;
    st.governor.windows_seen = 3;
    st.governor.windows_since_switch = 1;
    st.governor.switches = 2;
    st.battery_charge_j = 1.625e-3;
    st.beats_ingested = 400;
    st.beats_rejected = 5;
    st.beats_dropped = 3;
    st.beats_overwritten = 1;
    st.windows_completed = 3;
    st.high_water_alarms = 2;
    st.switch_log = {{2, 1}, {3, 2}};
    st.reports = {sample_report(2)};
    return st;
}

inline bytes read_all(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// One journal file with every record type: session_meta, beat (single
/// and batched), report, migration, stats_delta and the close() footer.
inline bytes sample_journal() {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("qpsa-wire-sample-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / "shard-1.qpsaj";
    {
        journal::writer_options opt;
        opt.shard_index = 1;
        opt.shard_count = 2;
        journal::report_writer w(path.string(), opt);

        journal::session_meta meta;
        meta.session_id = 7;
        meta.seed = 0x1234567890ABCDEFULL;
        meta.monitor.window_seconds = 120.0;
        meta.monitor.hop_seconds = 60.0;
        meta.monitor.min_beats = 16;
        meta.monitor.history_limit = 64;
        meta.governed = true;
        meta.initial_mode = core::engine_class::fixed_q15;
        meta.patient_id = "patient-7";
        w.append_session_meta(meta);

        w.append_beat(7, 0.8125, 0.8125);
        const journal::beat_event run[] = {
            {7, 1.5625, 0.75}, {7, 2.375, 0.8125}, {7, 3.125, 0.75}};
        w.append_beats(run);

        journal::report_event rep;
        rep.session_id = 7;
        rep.report = sample_report(4);
        rep.battery_fraction = 0.625;
        rep.mode_switches = 1;
        rep.mode_after = core::engine_class::wavelet;
        w.append_report(rep);

        journal::migration_event mig;
        mig.session_id = 7;
        mig.direction = journal::migration_direction::in;
        mig.battery_fraction = 0.5;
        mig.mode_switches = 2;
        mig.mode_after = core::engine_class::fixed_q15;
        w.append_migration(mig);

        w.append_stats_delta(sample_snapshot());
        w.close();
    }
    bytes out = read_all(path);
    std::filesystem::remove_all(dir);
    return out;
}

/// The token registry the sample ingest server resolves admits through:
/// "governed" runs the degradation ladder on a small battery, so the
/// session switches modes within a few windows.
inline service::session_config sample_registry(std::string_view token,
                                               std::string_view patient) {
    service::session_config cfg;
    cfg.patient_id = std::string(patient);
    cfg.analysis = core::psa_config::conventional();
    cfg.monitor.window_seconds = 120.0;
    cfg.monitor.hop_seconds = 60.0;
    cfg.ingest_capacity = 4096;
    if (token == "governed") {
        cfg.quality.controller = degradation_ladder();
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

/// A deterministic RR series (no libm): 0.75-0.99 s in 20 ms steps.
inline real sample_rr(std::size_t i) {
    return 0.75 + 0.02 * static_cast<real>((i * 7) % 13);
}

struct net_samples {
    bytes hello;
    bytes admit;
    bytes beat_batch;
    bytes session_state;
};

/// Capture full frames (header + payload) as the ingest tier sends them.
inline net_samples sample_net_frames() {
    net_samples out;
    const std::string sock_base = "/tmp/qpsa-wire-sample-" +
                                  std::to_string(::getpid());

    // Client side: an ingest_client against a bare listener, which
    // records its hello, admit and first beat_batch verbatim.
    {
        net::endpoint ep;
        ep.transport = net::endpoint::kind::unix_path;
        ep.path = sock_base + "-cap.sock";
        net::listener lis(ep);
        net::ingest_client_options copt;
        copt.shards = {lis.local()};
        copt.base_seed = 7;
        copt.batch_beats = 3;
        net::ingest_client client(copt);
        client.connect();
        std::optional<net::socket_conn> conn = lis.accept(5000, 5000);
        EXPECT_TRUE(conn.has_value());
        if (!conn) return out;
        const std::uint64_t id = client.add_session("patient-7", "governed");
        real t = 0.0;
        for (std::size_t i = 0; i < 3; ++i) {
            t += sample_rr(i);
            client.ingest(id, t, sample_rr(i));
        }
        for (bytes* dst : {&out.hello, &out.admit, &out.beat_batch}) {
            std::optional<net::frame> f = conn->recv_frame();
            EXPECT_TRUE(f.has_value());
            if (!f) return out;
            *dst = net::encode_frame(f->type, f->body);
        }
        client.close();
    }

    // Server side: a real ingest_server answers a session_query for a
    // governed session that has completed several windows.
    {
        net::ingest_server_options sopt;
        sopt.listen.transport = net::endpoint::kind::unix_path;
        sopt.listen.path = sock_base + "-srv.sock";
        sopt.service.threads = 1;
        service::plan_cache cache;
        net::ingest_server srv(sopt, sample_registry, &cache);
        srv.start();

        net::ingest_client_options copt;
        copt.shards = {srv.local()};
        copt.base_seed = 7;
        net::ingest_client client(copt);
        client.connect();
        const std::uint64_t id = client.add_session("patient-7", "governed");
        real t = 0.0;
        for (std::size_t i = 0; i < 480; ++i) {
            t += sample_rr(i);
            client.ingest(id, t, sample_rr(i));
        }
        client.flush();
        client.close();

        net::socket_conn q = net::dial(srv.local());
        std::vector<std::uint8_t> query(8, 0);  // u64 global id
        for (std::size_t i = 0; i < 8; ++i)
            query[i] = static_cast<std::uint8_t>(id >> (8 * i));
        q.send_frame(net::msg_type::session_query, query);
        std::optional<net::frame> f = q.recv_frame();
        EXPECT_TRUE(f.has_value());
        if (f) out.session_state = net::encode_frame(f->type, f->body);
        q.send_frame(net::msg_type::bye, {});
        q.close();
        srv.stop();
    }
    return out;
}

}  // namespace qpsa::test
