// qpsa::net tests: frame codec and corruption policy, endpoint parsing,
// session-state wire round trip, mid-window monitor export/restore,
// socket frame exchange over TCP and Unix domain, dial backoff against a
// late listener, publisher -> aggregator merge identity, and the full
// ingest tier (client + 2 servers) computing bit-identically to an
// in-process shard_router -- including a live mid-stream migration over
// the socket.  The tsan CI job runs this binary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <thread>

#include "qpsa/net/aggregator.hpp"
#include "qpsa/net/ingest_client.hpp"
#include "qpsa/net/ingest_server.hpp"
#include "qpsa/net/snapshot_publisher.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/service/service.hpp"
#include "qpsa/util/crc32.hpp"
#include "qpsa/util/random.hpp"
#include "quality_ladder.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace qn = qpsa::net;
namespace qp = qpsa::physio;
namespace qs = qpsa::service;

namespace {

std::string unique_sock(const char* tag) {
    return "/tmp/qpsa-net-" + std::to_string(::getpid()) + "-" + tag +
           ".sock";
}

qn::endpoint unix_ep(const char* tag) {
    qn::endpoint ep;
    ep.transport = qn::endpoint::kind::unix_path;
    ep.path = unique_sock(tag);
    return ep;
}

qcore::monitor_options paper_monitor() {
    qcore::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

/// The shared "config registry" both socket servers and the in-process
/// reference resolve tokens through.
qs::session_config registry_config(std::string_view token,
                                   std::string_view patient_id) {
    qs::session_config cfg;
    cfg.patient_id = std::string(patient_id);
    cfg.analysis = qcore::psa_config::conventional();
    cfg.monitor = paper_monitor();
    cfg.ingest_capacity = 4096;
    if (token == "governed") {
        cfg.quality.controller = qpsa::test::degradation_ladder();
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

void expect_reports_identical(std::span<const qcore::window_report> got,
                              std::span<const qcore::window_report> want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bands.lf, want[i].bands.lf);
        EXPECT_EQ(got[i].bands.hf, want[i].bands.hf);
        EXPECT_EQ(got[i].bands.total, want[i].bands.total);
        EXPECT_EQ(got[i].ops, want[i].ops);
        EXPECT_EQ(got[i].beats, want[i].beats);
        EXPECT_EQ(got[i].engine, want[i].engine);
    }
}

/// A session state exercising every wire field.
qs::session_runtime_state fat_state() {
    qs::session_runtime_state st;
    st.global_id = 42;
    st.patient_id = "patient-42";
    st.seed = 0xDEADBEEFCAFEF00DULL;
    st.ring = {{100.25, 0.8125}, {101.0, 0.75}};
    st.monitor.buffered = {{90.5, 0.8}, {91.25, 0.875}};
    st.monitor.next_window_start = 60.0;
    st.monitor.started = true;
    st.monitor.windows_completed = 3;
    st.monitor.beats_seen = 321;
    qcore::window_report rep;
    rep.t_start = 0.0;
    rep.t_end = 120.0;
    rep.bands.ulf = 1.0 / 3.0;
    rep.bands.lf = 2.0 / 7.0;
    rep.bands.hf = 1.0e-17;
    rep.bands.total = 0.625;
    rep.diagnosis = qpsa::hrv::diagnosis::normal;
    rep.ops.adds = 11;
    rep.ops.muls = 22;
    rep.beats = 123;
    rep.engine = qcore::engine_class::fixed_q15;
    st.monitor.pending = {rep};
    st.monitor.history = {rep, rep};
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
    st.reports = {rep};
    return st;
}

}  // namespace

// -------------------------------------------------------------- endpoint

TEST(EndpointTest, ParsesTcpAndUnix) {
    const auto tcp = qn::endpoint::parse("tcp:127.0.0.1:8080");
    EXPECT_EQ(tcp.transport, qn::endpoint::kind::tcp);
    EXPECT_EQ(tcp.host, "127.0.0.1");
    EXPECT_EQ(tcp.port, 8080);
    EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:8080");

    const auto ux = qn::endpoint::parse("unix:/tmp/x.sock");
    EXPECT_EQ(ux.transport, qn::endpoint::kind::unix_path);
    EXPECT_EQ(ux.path, "/tmp/x.sock");
    EXPECT_EQ(ux.to_string(), "unix:/tmp/x.sock");
}

TEST(EndpointTest, RejectsMalformedAddresses) {
    EXPECT_THROW(qn::endpoint::parse("127.0.0.1:8080"), qn::net_error);
    EXPECT_THROW(qn::endpoint::parse("tcp:nohost"), qn::net_error);
    EXPECT_THROW(qn::endpoint::parse("tcp:host:notaport"), qn::net_error);
    EXPECT_THROW(qn::endpoint::parse("tcp:host:99999"), qn::net_error);
    EXPECT_THROW(qn::endpoint::parse("unix:"), qn::net_error);
    EXPECT_THROW(qn::endpoint::parse(""), qn::net_error);
}

// ----------------------------------------------------------------- frame

TEST(FrameTest, RoundTripIsLossless) {
    const std::vector<std::uint8_t> body = {1, 2, 3, 254, 255};
    const auto bytes = qn::encode_frame(qn::msg_type::snapshot, body);
    ASSERT_EQ(bytes.size(), qn::frame_header_bytes + 1 + body.size());

    const qn::frame f = qn::decode_frame(bytes);
    EXPECT_EQ(f.type, qn::msg_type::snapshot);
    EXPECT_EQ(f.body, body);

    // Empty bodies frame too (heartbeat, flush, bye).
    const auto hb = qn::encode_frame(qn::msg_type::heartbeat, {});
    EXPECT_EQ(qn::decode_frame(hb).type, qn::msg_type::heartbeat);
    EXPECT_TRUE(qn::decode_frame(hb).body.empty());
}

TEST(FrameTest, CorruptionIsRejected) {
    const std::vector<std::uint8_t> body = {9, 8, 7};
    auto bytes = qn::encode_frame(qn::msg_type::admit, body);

    auto corrupt = bytes;
    corrupt[0] ^= 0xFF;  // magic
    EXPECT_THROW(qn::decode_frame(corrupt), qs::wire_error);

    corrupt = bytes;
    corrupt.back() ^= 0x01;  // body bit flip -> CRC mismatch
    EXPECT_THROW(qn::decode_frame(corrupt), qs::wire_error);

    corrupt = bytes;
    corrupt[8] ^= 0x01;  // stored CRC bit flip
    EXPECT_THROW(qn::decode_frame(corrupt), qs::wire_error);

    // Unknown message type (CRC recomputed to isolate the type check).
    auto unknown = qn::encode_frame(qn::msg_type::bye, body);
    EXPECT_THROW(
        [&] {
            std::vector<std::uint8_t> payload(unknown.begin() + 12,
                                              unknown.end());
            payload[0] = 99;
            std::vector<std::uint8_t> reframed(unknown.begin(),
                                               unknown.begin() + 12);
            const std::uint32_t crc = qpsa::util::crc32(payload);
            for (std::size_t i = 0; i < 4; ++i)
                reframed[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
            reframed.insert(reframed.end(), payload.begin(), payload.end());
            qn::decode_frame(reframed);
        }(),
        qs::wire_error);

    // Truncated header / short buffer.
    const std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 7);
    EXPECT_THROW(qn::decode_frame_header(stub), qs::wire_error);
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
    EXPECT_THROW(qn::decode_frame(cut), qs::wire_error);
}

TEST(FrameTest, BodyCodecRoundTripsAndGuardsUnderflow) {
    std::vector<std::uint8_t> bytes;
    qs::byte_writer w(bytes);
    w.u8(7);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.f64(1.0 / 3.0);
    w.str("patient-7");

    qs::byte_reader r(bytes, qn::frame_context);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), "patient-7");
    r.expect_exhausted();

    qs::byte_reader under(bytes, qn::frame_context);
    EXPECT_THROW(
        {
            while (true) under.u64();
        },
        qs::wire_error);

    qs::byte_reader trailing(bytes, qn::frame_context);
    trailing.u8();
    EXPECT_THROW(trailing.expect_exhausted(), qs::wire_error);
}

// ----------------------------------------------------- session state wire

TEST(SessionStateWireTest, RoundTripIsLossless) {
    const qs::session_runtime_state st = fat_state();
    const std::vector<std::uint8_t> bytes = st.serialize();
    EXPECT_EQ(qs::session_runtime_state::deserialize(bytes), st);

    const qs::session_runtime_state empty;
    EXPECT_EQ(qs::session_runtime_state::deserialize(empty.serialize()),
              empty);
}

TEST(SessionStateWireTest, MalformedBytesAreRejected) {
    std::vector<std::uint8_t> bytes = fat_state().serialize();
    for (std::size_t cut : {std::size_t{0}, std::size_t{5}, bytes.size() / 3,
                            bytes.size() - 1}) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        EXPECT_THROW(qs::session_runtime_state::deserialize(prefix),
                     qs::wire_error)
            << "cut " << cut;
    }
    auto corrupt = bytes;
    corrupt[0] ^= 0xFF;
    EXPECT_THROW(qs::session_runtime_state::deserialize(corrupt),
                 qs::wire_error);
    corrupt = bytes;
    corrupt.push_back(0);
    EXPECT_THROW(qs::session_runtime_state::deserialize(corrupt),
                 qs::wire_error);
}

TEST(SessionStateWireTest, BoolByteAboveOneIsRejected) {
    // The monitor's `started` flag: after the header, id, seed, patient
    // id, ring, buffered beats, pending and history reports and
    // next_window_start.
    const qs::session_runtime_state st = fat_state();
    const std::size_t at =
        4 + 2 + 8 + 8 + 2 + st.patient_id.size() + 8 + 16 * st.ring.size() +
        8 + 16 * st.monitor.buffered.size() + 8 +
        qs::report_wire_bytes * st.monitor.pending.size() + 8 +
        qs::report_wire_bytes * st.monitor.history.size() + 8;
    std::vector<std::uint8_t> bytes = st.serialize();
    ASSERT_EQ(bytes[at], 1);
    bytes[at] = 2;
    EXPECT_THROW(qs::session_runtime_state::deserialize(bytes),
                 qs::wire_error);

    // The session_state reply's `found` flag follows the same rule.
    const std::vector<std::uint8_t> found = {2};
    EXPECT_THROW(qn::decode_session_state(found), qs::wire_error);
}

TEST(SessionStateWireTest, ReportBlobRoundTrips) {
    const qs::session_runtime_state st = fat_state();
    const auto bytes = qs::serialize_reports(st.monitor.history);
    const auto back = qs::deserialize_reports(bytes);
    ASSERT_EQ(back.size(), st.monitor.history.size());
    for (std::size_t i = 0; i < back.size(); ++i)
        EXPECT_EQ(back[i], st.monitor.history[i]);
}

// ------------------------------------------------- monitor export/restore

TEST(MonitorStateTest, ExportRestoreMidWindowIsBitIdentical) {
    const auto patient = qp::make_patient(qp::cohort::sinus_arrhythmia, 3);
    const auto rec = qp::record_for(patient, 600.0);

    qcore::streaming_monitor full(qcore::psa_config::conventional(),
                                  paper_monitor());
    qcore::streaming_monitor moved(qcore::psa_config::conventional(),
                                   paper_monitor());

    // Split mid-record -- mid-window, with beats buffered and possibly
    // completed reports pending.
    const std::size_t split = rec.beats() / 2 + 7;
    for (std::size_t i = 0; i < split; ++i) {
        full.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
        moved.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    }

    // Export/restore into a *fresh* monitor; the original continues.
    qcore::streaming_monitor resumed(qcore::psa_config::conventional(),
                                     paper_monitor());
    resumed.restore_state(moved.export_state());

    std::vector<qcore::window_report> a, b;
    for (std::size_t i = split; i < rec.beats(); ++i) {
        full.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
        resumed.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    }
    while (auto rep = full.poll()) a.push_back(*rep);
    while (auto rep = resumed.poll()) b.push_back(*rep);
    ASSERT_FALSE(a.empty());
    expect_reports_identical(b, a);
}

// ---------------------------------------------------------------- sockets

TEST(SocketTest, TcpFrameRoundTrip) {
    qn::endpoint ep;
    ep.transport = qn::endpoint::kind::tcp;
    ep.host = "127.0.0.1";
    ep.port = 0;
    qn::listener lis(ep);
    ASSERT_GT(lis.local().port, 0);  // ephemeral port resolved

    std::thread echo([&lis] {
        auto conn = lis.accept(5000);
        ASSERT_TRUE(conn.has_value());
        while (auto f = conn->recv_frame()) {
            if (f->type == qn::msg_type::bye) break;
            conn->send_frame(f->type, f->body);
        }
    });

    qn::socket_conn c = qn::dial(lis.local());
    const std::vector<std::uint8_t> body = {5, 4, 3, 2, 1};
    c.send_frame(qn::msg_type::beat_batch, body);
    const auto back = c.recv_frame();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, qn::msg_type::beat_batch);
    EXPECT_EQ(back->body, body);
    EXPECT_GT(c.bytes_sent(), 0u);
    EXPECT_GT(c.bytes_received(), 0u);
    c.send_frame(qn::msg_type::bye, {});
    echo.join();
}

TEST(SocketTest, DialBacksOffUntilLateListenerAppears) {
    const qn::endpoint ep = unix_ep("late");
    ::unlink(ep.path.c_str());

    std::thread late([&ep] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        qn::listener lis(ep);
        auto conn = lis.accept(5000);
        ASSERT_TRUE(conn.has_value());
        const auto f = conn->recv_frame();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->type, qn::msg_type::heartbeat);
    });

    // The listener does not exist yet: dial must retry until it does.
    qn::dial_options opt;
    opt.max_attempts = 100;
    opt.initial_backoff_ms = 5;
    opt.max_backoff_ms = 50;
    qn::socket_conn c = qn::dial(ep, opt);
    c.send_frame(qn::msg_type::heartbeat, {});
    late.join();

    // And against nothing at all, it gives up loudly.
    const qn::endpoint dead = unix_ep("dead");
    ::unlink(dead.path.c_str());
    qn::dial_options fast;
    fast.max_attempts = 3;
    fast.initial_backoff_ms = 1;
    EXPECT_THROW(qn::dial(dead, fast), qn::net_error);
}

// ------------------------------------------------ publisher -> aggregator

TEST(PublisherAggregatorTest, MergedSnapshotIsBitIdenticalToInProcess) {
    // Two independent managers stand in for two shard processes.
    qs::plan_cache cache;
    qs::service_options opt;
    opt.threads = 1;
    qs::session_manager m0(opt, &cache), m1(opt, &cache);

    const auto drive = [](qs::session_manager& m, unsigned patient,
                          const char* token) {
        auto cfg = registry_config(token, "p" + std::to_string(patient));
        const auto id = m.add_session(std::move(cfg));
        const auto rec = qp::record_for(
            qp::make_patient(qp::cohort::sinus_arrhythmia, patient), 400.0);
        for (std::size_t i = 0; i < rec.beats(); ++i)
            m.ingest(id, rec.beat_time_s[i], rec.rr_s[i]);
        m.drain_all();
    };
    drive(m0, 1, "plain");
    drive(m1, 2, "governed");

    qn::aggregator agg(qn::aggregator_options{unix_ep("agg")});
    agg.start();

    qn::publisher_options p0;
    p0.aggregator = agg.local();
    p0.shard_index = 0;
    p0.shard_count = 2;
    qn::publisher_options p1 = p0;
    p1.shard_index = 1;
    qn::snapshot_publisher pub0(p0, [&m0] { return m0.fleet(); });
    qn::snapshot_publisher pub1(p1, [&m1] { return m1.fleet(); });
    pub0.publish_now();
    pub1.publish_now();
    EXPECT_EQ(pub0.snapshots_published(), 1u);

    // publish_now returns after the send; wait for the aggregator's
    // connection threads to decode both.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (agg.snapshots_received() < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(agg.shards_reporting(), 2u);

    qs::fleet_snapshot want = m0.fleet();
    want += m1.fleet();
    EXPECT_EQ(agg.merged(), want);

    // Heartbeats keep a quiet publisher alive and are counted.
    qn::socket_conn hb = qn::dial(agg.local());
    hb.send_frame(qn::msg_type::heartbeat, {});
    while (agg.heartbeats_received() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(agg.heartbeats_received(), 1u);

    pub0.stop();
    pub1.stop();
    // hb never says bye: stop() must still return promptly (close
    // shutdown()s the socket, waking the handler's blocked poll) instead
    // of waiting out the heartbeat timeout on the silent peer.
    const auto t0 = std::chrono::steady_clock::now();
    agg.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(2));
}

// ------------------------------------------------------------ ingest tier

TEST(IngestTierTest, SocketFleetComputesBitIdenticallyToInProcess) {
    // Two shard servers (processes in production, threads here -- the
    // wire between them is the real thing).
    qs::plan_cache cache0, cache1;
    qn::ingest_server_options s0;
    s0.listen = unix_ep("shard0");
    s0.shard_index = 0;
    s0.shard_count = 2;
    s0.service.threads = 1;
    qn::ingest_server_options s1 = s0;
    s1.listen = unix_ep("shard1");
    s1.shard_index = 1;
    qn::ingest_server srv0(s0, registry_config, &cache0);
    qn::ingest_server srv1(s1, registry_config, &cache1);
    srv0.start();
    srv1.start();

    qn::ingest_client_options copt;
    copt.shards = {srv0.local(), srv1.local()};
    copt.batch_beats = 64;
    qn::ingest_client client(copt);
    client.connect();

    // In-process reference running the identical schedule.
    qs::router_options ropt;
    ropt.shards = 2;
    ropt.shard.threads = 1;
    qs::plan_cache ref_cache;
    qs::shard_router ref(ropt, &ref_cache);

    struct member {
        qp::rr_record rec;
        std::string token;
        std::uint64_t id = 0;
    };
    std::vector<member> cohort;
    for (unsigned i = 0; i < 4; ++i) {
        const auto patient = qp::make_patient(
            i % 2 ? qp::cohort::healthy : qp::cohort::sinus_arrhythmia, i);
        member m{qp::record_for(patient, 500.0),
                 i % 2 ? std::string("governed") : std::string("plain")};
        m.id = client.add_session(patient.id, m.token);
        const auto rid =
            ref.add_session(registry_config(m.token, patient.id));
        ASSERT_EQ(m.id, rid);
        ASSERT_EQ(client.shard_of(m.id), ref.shard_of(rid));
        cohort.push_back(std::move(m));
    }

    // Phase 1: half of every record, drain barrier both sides.
    for (auto& m : cohort)
        for (std::size_t i = 0; i < m.rec.beats() / 2; ++i) {
            client.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
            ref.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
        }
    client.flush();
    ref.drain_all();

    // Live migration of a governed session, over the socket and in the
    // reference -- mid-stream, mid-governor-dwell.
    const std::uint64_t moving = cohort[2].id;  // governed
    const std::size_t target = 1 - client.shard_of(moving);
    client.migrate(moving, target);
    ref.migrate_session(moving, target);
    EXPECT_EQ(client.shard_of(moving), ref.shard_of(moving));
    EXPECT_EQ(client.migrations(), 1u);

    // Phase 2.
    for (auto& m : cohort)
        for (std::size_t i = m.rec.beats() / 2; i < m.rec.beats(); ++i) {
            client.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
            ref.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
        }
    client.flush();
    ref.drain_all();

    // Merged socket stats == in-process router, every analysis column.
    // The drain-scheduler columns are the exception: the in-process
    // router drains both shards in one pass on one pool, so its lane
    // groups fill across shards (never emptier than two shard processes
    // draining apart) and its workers steal.
    qs::fleet_snapshot socket_stats = client.merged_stats();
    qs::fleet_snapshot ref_stats = ref.fleet();
    EXPECT_GE(ref_stats.lane_slots_filled, socket_stats.lane_slots_filled);
    for (qs::fleet_snapshot* snap : {&socket_stats, &ref_stats}) {
        snap->windows_stolen = 0;
        snap->lane_slots_filled = 0;
        snap->lane_slots_offered = 0;
    }
    EXPECT_EQ(socket_stats, ref_stats);

    // The migrated session's full output matches the reference's and an
    // unmigrated serial run (migration left no computational trace).
    const qn::session_report moved = client.query_session(moving);
    ASSERT_TRUE(moved.found);
    expect_reports_identical(moved.reports, ref.at(moving).reports());
    ASSERT_EQ(moved.switch_log.size(), ref.at(moving).switch_log().size());
    for (std::size_t i = 0; i < moved.switch_log.size(); ++i)
        EXPECT_EQ(moved.switch_log[i], ref.at(moving).switch_log()[i]);

    qs::service_options solo_opt;
    solo_opt.threads = 1;
    qs::plan_cache solo_cache;
    qs::session_manager solo(solo_opt, &solo_cache);
    auto solo_cfg = registry_config(cohort[2].token, "ignored");
    solo_cfg.patient_id = ref.at(moving).patient_id();
    solo_cfg.seed = qpsa::util::derive_stream_seed(copt.base_seed, moving);
    const auto solo_id = solo.add_session(std::move(solo_cfg));
    for (std::size_t i = 0; i < cohort[2].rec.beats(); ++i)
        solo.ingest(solo_id, cohort[2].rec.beat_time_s[i],
                    cohort[2].rec.rr_s[i]);
    solo.drain_all();
    expect_reports_identical(moved.reports, solo.at(solo_id).reports());

    client.close();
    srv0.stop();
    srv1.stop();
}

TEST(IngestTierTest, ForgedSwitchCountIsRejected) {
    // found, global id, windows, then a switch count no body can hold.
    std::vector<std::uint8_t> body;
    qs::byte_writer w(body);
    w.boolean(true);
    w.u64(7);
    w.u64(3);
    w.u32(0xFFFFFFFFu);
    EXPECT_THROW(qn::decode_session_state(body), qs::wire_error);
}

TEST(IngestTierTest, MiscountedBeatBatchIsRejectedWhole) {
    qn::ingest_server_options opt;
    opt.listen = unix_ep("miscount");
    opt.service.threads = 1;
    qs::plan_cache cache;
    qn::ingest_server srv(opt, registry_config, &cache);
    srv.start();

    const auto batch = [](std::uint32_t count, std::size_t beats) {
        std::vector<std::uint8_t> body;
        qs::byte_writer w(body);
        w.u32(count);
        for (std::size_t i = 0; i < beats; ++i) {
            w.u64(0);
            w.f64(0.8 * static_cast<real>(i + 1));
            w.f64(0.8);
        }
        return body;
    };
    std::vector<std::uint8_t> admit;
    qs::byte_writer aw(admit);
    aw.u64(0);
    aw.u64(1);
    aw.str("plain");
    aw.str("patient-0");

    qn::socket_conn good = qn::dial(srv.local());
    good.send_frame(qn::msg_type::admit, admit);
    good.send_frame(qn::msg_type::beat_batch, batch(2, 2));
    good.send_frame(qn::msg_type::flush, {});
    const auto ack = good.recv_frame();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, qn::msg_type::flush_ack);
    ASSERT_EQ(srv.beats_ingested(), 2u);

    // Over-counted (3 claimed, 2 sent) and under-counted (1 claimed, 2
    // sent) batches: the server drops the connection without applying
    // any beat of either.
    for (const std::uint32_t count : {3u, 1u}) {
        qn::socket_conn bad = qn::dial(srv.local());
        bad.send_frame(qn::msg_type::beat_batch, batch(count, 2));
        EXPECT_FALSE(bad.recv_frame().has_value()) << "count " << count;
        EXPECT_EQ(srv.beats_ingested(), 2u) << "count " << count;
        EXPECT_EQ(srv.beats_rejected(), 0u) << "count " << count;
    }
    good.send_frame(qn::msg_type::bye, {});
    srv.stop();
}

TEST(IngestTierTest, TcpSmoke) {
    qn::ingest_server_options opt;
    opt.listen = qn::endpoint::parse("tcp:127.0.0.1:0");
    opt.service.threads = 1;
    qs::plan_cache cache;
    qn::ingest_server srv(opt, registry_config, &cache);
    srv.start();
    ASSERT_GT(srv.local().port, 0);

    qn::ingest_client_options copt;
    copt.shards = {srv.local()};
    qn::ingest_client client(copt);
    client.connect();

    const auto patient = qp::make_patient(qp::cohort::healthy, 9);
    const auto rec = qp::record_for(patient, 400.0);
    const auto id = client.add_session(patient.id, "plain");
    for (std::size_t i = 0; i < rec.beats(); ++i)
        client.ingest(id, rec.beat_time_s[i], rec.rr_s[i]);
    const std::uint64_t windows = client.flush();
    EXPECT_GT(windows, 0u);

    // Serial reference with the same derived seed.
    qcore::streaming_monitor mon(qcore::psa_config::conventional(),
                                 paper_monitor());
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    std::vector<qcore::window_report> want;
    while (auto rep = mon.poll()) want.push_back(*rep);

    const qn::session_report got = client.query_session(id);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.windows_completed, windows);
    expect_reports_identical(got.reports, want);

    client.close();
    srv.stop();
}
