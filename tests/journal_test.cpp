// qpsa::journal tests: CRC-32 vectors, writer/scanner round trip,
// bit-identical crash-recovery rebuild of a sharded governed fleet,
// torn-tail tolerance at every truncation offset, loud rejection of
// mid-file corruption, deterministic same-spec replay and the v2 wire
// columns -- plus the arena resampled_psd equivalence the alloc-gated
// bench mix relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <vector>

#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/journal/replay_driver.hpp"
#include "qpsa/journal/report_reader.hpp"
#include "qpsa/journal/report_writer.hpp"
#include "qpsa/lomb/resampled_psd.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/service/service.hpp"
#include "qpsa/util/crc32.hpp"
#include "quality_ladder.hpp"
#include "wire_samples.hpp"

using qpsa::real;
using qpsa::test::snapshot_as_version;
namespace fs = std::filesystem;
namespace qcore = qpsa::core;
namespace qj = qpsa::journal;
namespace qp = qpsa::physio;
namespace qs = qpsa::service;
namespace qf = qpsa::wfft;
namespace qu = qpsa::util;
namespace qw = qpsa::wavelet;

namespace {

/// Fresh per-test scratch directory under gtest's temp root.
fs::path temp_dir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("qpsa-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Hand-frame one record (correct CRC) -- the corruption tests use this
/// to craft byte sequences the writer itself refuses to produce.
void put_record(std::vector<std::uint8_t>& out, std::uint8_t type,
                std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> payload;
    payload.push_back(type);
    payload.insert(payload.end(), body.begin(), body.end());
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, qu::crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> journal_header(std::uint32_t shard_index = 0,
                                         std::uint32_t shard_count = 1) {
    std::vector<std::uint8_t> out;
    put_u32(out, qj::journal_magic);
    out.push_back(qj::journal_wire_version);
    out.push_back(0);
    out.push_back(0);  // reserved
    out.push_back(0);
    put_u32(out, shard_index);
    put_u32(out, shard_count);
    return out;
}

qcore::monitor_options paper_monitor() {
    qcore::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

/// Ungoverned engine mix covering mesh-FFT, fixed-point and all three
/// whole-window kinds (the arena-threaded resampled/welch included).
std::vector<qcore::psa_config> mode_mix() {
    return {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::resampled(),
        qcore::psa_config::welch(),
    };
}

qs::session_config governed_session(const std::string& patient_id) {
    qs::session_config cfg;
    cfg.patient_id = patient_id;
    cfg.analysis = qcore::psa_config::conventional();
    cfg.monitor = paper_monitor();
    cfg.ingest_capacity = 4096;
    cfg.quality.controller = qpsa::test::degradation_ladder();
    cfg.quality.governed = true;
    cfg.quality.governor.reselect_every = 1;
    cfg.quality.governor.min_dwell = 2;
    cfg.quality.governor.switch_margin = 0.02;
    cfg.quality.governor.budget_full_pct = 0.0;
    cfg.quality.governor.budget_empty_pct = 10.0;
    cfg.battery.capacity_j = 2.6e-3;
    return cfg;
}

/// A mixed fleet: even patients governed under the degradation ladder,
/// odd patients pinned to one of the mode-mix engines.
struct journaled_fixture {
    std::vector<qp::rr_record> records;
    std::vector<qs::session_config> configs;

    explicit journaled_fixture(unsigned patients, real seconds = 400.0) {
        const auto mix = mode_mix();
        for (unsigned i = 0; i < patients; ++i) {
            const auto patient =
                qp::make_patient(i % 2 == 0 ? qp::cohort::sinus_arrhythmia
                                            : qp::cohort::healthy,
                                 i % 64);
            records.push_back(qp::record_for(patient, seconds));
            if (i % 2 == 0) {
                configs.push_back(governed_session(patient.id));
            } else {
                qs::session_config cfg;
                cfg.patient_id = patient.id;
                cfg.analysis = mix[i % mix.size()];
                cfg.monitor = paper_monitor();
                cfg.ingest_capacity = 4096;
                configs.push_back(cfg);
            }
        }
    }

    void stream_through(qs::shard_router& router) const {
        for (unsigned i = 0; i < records.size(); ++i)
            router.add_session(configs[i]);
        for (unsigned i = 0; i < records.size(); ++i) {
            const auto& rec = records[i];
            for (std::size_t b = 0; b < rec.beats(); ++b)
                ASSERT_TRUE(router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
        }
        router.drain_all();
    }
};

/// Small single-shard journal written through a real fleet -- the
/// corruption tests mutate its bytes.
std::vector<std::uint8_t> small_journal_bytes(const fs::path& dir) {
    qs::router_options opt;
    opt.shards = 1;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    qs::session_config cfg;
    cfg.patient_id = "patient-torn";
    cfg.analysis = qcore::psa_config::conventional();
    cfg.monitor = paper_monitor();
    cfg.ingest_capacity = 4096;
    router.add_session(cfg);
    const auto rec = qp::record_for(qp::make_patient(qp::cohort::healthy, 1),
                                    260.0);
    for (std::size_t b = 0; b < rec.beats(); ++b)
        EXPECT_TRUE(router.ingest(0, rec.beat_time_s[b], rec.rr_s[b]));
    router.drain_all();
    router.close_journals();
    return read_file(dir / ("shard-0" + std::string(qj::journal_file_extension)));
}

}  // namespace

// --------------------------------------------------------------- crc32

TEST(Crc32Test, KnownVectorAndComposition) {
    const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(qu::crc32(check), 0xCBF43926u);
    EXPECT_EQ(qu::crc32(std::span<const std::uint8_t>{}), 0u);

    // Streaming composition: crc(a+b) == crc_append(crc(a), b) -- the
    // property put_record relies on to checksum type byte + body without
    // concatenating them.
    const std::span<const std::uint8_t> all{check, sizeof check};
    for (std::size_t split = 0; split <= sizeof check; ++split)
        EXPECT_EQ(qu::crc32_append(qu::crc32(all.first(split)),
                                   all.subspan(split)),
                  0xCBF43926u)
            << "split " << split;
}

// -------------------------------------------------------- writer/reader

TEST(JournalWriterTest, RoundTripThroughScan) {
    const fs::path dir = temp_dir("journal-roundtrip");
    const fs::path path = dir / "shard-0.qpsaj";

    qj::session_meta meta;
    meta.session_id = 7;
    meta.seed = 0x123456789ABCDEF0ull;
    meta.monitor = paper_monitor();
    meta.governed = true;
    meta.initial_mode = qcore::engine_class::fixed_q15;
    meta.patient_id = "patient-7";

    qj::report_event ev;
    ev.session_id = 7;
    ev.report.t_start = 0.0;
    ev.report.t_end = 120.0;
    ev.report.bands.lf = 1.0 / 3.0;  // non-representable: bits must travel
    ev.report.bands.hf = 2.0 / 7.0;
    ev.report.bands.total = 1.0e-17;
    ev.report.diagnosis = qpsa::hrv::diagnosis::normal;
    ev.report.ops.adds = 11;
    ev.report.ops.muls = 22;
    ev.report.beats = 99;
    ev.report.engine = qcore::engine_class::welch;
    ev.battery_fraction = 0.625;
    ev.mode_switches = 3;
    ev.mode_after = qcore::engine_class::wavelet;

    qs::fleet_snapshot delta;
    delta.windows = 5;
    delta.lf_sum = 5.0 / 13.0;

    {
        qj::report_writer w(path.string(), {});
        w.append_session_meta(meta);
        w.append_beat(7, 0.25, 0.8);
        w.append_beat(7, 1.05, 0.81);
        w.append_report(ev);
        w.append_stats_delta(delta);
        w.close();
        const qj::writer_counters c = w.counters();
        EXPECT_EQ(c.appends, 6u);  // 5 records + footer
        EXPECT_GE(c.fsyncs, 1u);   // close() always syncs
    }

    const qj::journal_scan scan = qj::scan_journal(path.string());
    EXPECT_TRUE(scan.header_present);
    EXPECT_TRUE(scan.clean_close);
    EXPECT_FALSE(scan.torn_tail);
    EXPECT_EQ(scan.shard_index, 0u);
    EXPECT_EQ(scan.shard_count, 1u);
    ASSERT_EQ(scan.sessions.size(), 1u);
    EXPECT_EQ(scan.sessions[0], meta);
    ASSERT_EQ(scan.beats.size(), 2u);
    EXPECT_EQ(scan.beats[0], (qj::beat_event{7, 0.25, 0.8}));
    EXPECT_EQ(scan.beats[1], (qj::beat_event{7, 1.05, 0.81}));
    ASSERT_EQ(scan.reports.size(), 1u);
    EXPECT_EQ(scan.reports[0], ev);
    EXPECT_EQ(scan.stats, delta);
    EXPECT_EQ(scan.records, 6u);
    EXPECT_EQ(scan.footer.records, 5u);
}

// ------------------------------------------------------- crash recovery

TEST(JournalRecoveryTest, ShardedGovernedRebuildIsBitIdentical) {
    const fs::path dir = temp_dir("journal-rebuild");
    const journaled_fixture fx(12);

    qs::router_options opt;
    opt.shards = 3;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    fx.stream_through(router);
    router.close_journals();

    const qs::fleet_snapshot live = router.fleet();
    EXPECT_GT(live.windows, 0u);
    EXPECT_GT(live.mode_switches, 0u);  // the ladder actually ran
    EXPECT_FALSE(live.quality.empty());
    EXPECT_GT(live.journal_appends, 0u);
    EXPECT_GT(live.journal_bytes, 0u);
    EXPECT_GT(live.journal_fsyncs, 0u);

    // The whole point of the subsystem: operator== over every column,
    // double sums included -- the journaled stats deltas re-merge in the
    // live merge order, so the rebuild is bit-identical, not just close.
    const qs::fleet_snapshot rebuilt =
        qj::rebuild_fleet_snapshot(dir.string());
    EXPECT_EQ(rebuilt, live);
}

TEST(JournalRecoveryTest, SameSpecReplayIsBitIdentical) {
    const fs::path dir = temp_dir("journal-replay");
    const journaled_fixture fx(8);

    qs::router_options opt;
    opt.shards = 2;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    fx.stream_through(router);
    const std::uint64_t live_windows = router.fleet().windows;
    router.close_journals();

    const qj::replay_driver driver(dir.string());
    ASSERT_EQ(driver.sessions().size(), fx.records.size());

    // Same-spec replay: hand every session its original config (analysis,
    // quality policy, battery) keyed by patient id; the driver forces
    // seed/monitor/patient from the record.  Every report -- governed
    // sessions' included -- must reproduce bit for bit.
    std::unordered_map<std::string, const qs::session_config*> by_patient;
    for (const auto& cfg : fx.configs) by_patient[cfg.patient_id] = &cfg;
    const qj::replay_result same = driver.run(
        [&by_patient](const qj::session_meta& meta) {
            return *by_patient.at(meta.patient_id);
        });
    EXPECT_TRUE(same.all_identical);
    EXPECT_EQ(same.sessions, fx.records.size());
    EXPECT_EQ(same.windows, live_windows);
    EXPECT_EQ(same.reports_compared, live_windows);
    EXPECT_EQ(same.reports_matched, live_windows);
    EXPECT_EQ(same.fleet.windows, live_windows);

    // Re-analysis under a different estimator: same patients, same beats,
    // welch spectra -- runs to completion but is *not* report-identical
    // (op counts differ at minimum), which is the point.
    const qj::replay_result welch =
        driver.run_with(qcore::psa_config::welch());
    EXPECT_GT(welch.windows, 0u);
    EXPECT_GT(welch.reports_compared, 0u);
    EXPECT_FALSE(welch.all_identical);
    EXPECT_GT(welch.fleet.engine(qcore::engine_class::welch).windows, 0u);
}

namespace {

/// Visit the records of a journal file in log order: (type, body) with
/// the frame stripped.  The scanner groups records by kind; write-ahead
/// checks need the interleaving.
template <typename Fn>
void walk_records(std::span<const std::uint8_t> bytes, Fn&& fn) {
    const auto u32_at = [&](std::size_t off) {
        std::uint32_t v = 0;
        for (std::size_t i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
        return v;
    };
    std::size_t off = qj::journal_header_bytes;
    while (off + qj::journal_frame_bytes <= bytes.size()) {
        const std::uint32_t len = u32_at(off);
        const std::size_t payload = off + qj::journal_frame_bytes;
        ASSERT_LE(payload + len, bytes.size());
        fn(static_cast<qj::record_type>(bytes[payload]),
           bytes.subspan(payload + 1, len - 1));
        off = payload + len;
    }
}

template <typename T>
T field_at(std::span<const std::uint8_t> body, std::size_t off) {
    T v;
    std::memcpy(&v, body.data() + off, sizeof v);  // LE wire, LE host
    return v;
}

}  // namespace

TEST(JournalWriteAheadTest, TrickleFedShardsJournalBeatsBeforeReports) {
    // Two journaled shards on one pool of four workers, fed 1-3 beats per
    // session per pump: most passes leave most sessions' beats waiting in
    // their rings, and a drained session journals its beats from its own
    // stage before each report.  A report record must follow the
    // journaled beat that closed it (one at or past its t_end) and every
    // beat it analyzed (at least `beats` journaled in [t_start, t_end)),
    // and the log must still rebuild the live snapshot bit for bit.
    const fs::path dir = temp_dir("journal-write-ahead");
    const journaled_fixture fx(10);
    qs::router_options opt;
    opt.shards = 2;
    opt.shard.threads = 2;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.configs[i]);
    std::vector<std::size_t> next(fx.records.size(), 0);
    for (std::size_t step = 0;; ++step) {
        bool remaining = false;
        for (unsigned i = 0; i < fx.records.size(); ++i) {
            const auto& rec = fx.records[i];
            const std::size_t k = 1 + (step + i) % 3;
            for (std::size_t j = 0; j < k && next[i] < rec.beats();
                 ++j, ++next[i])
                ASSERT_TRUE(router.ingest(i, rec.beat_time_s[next[i]],
                                          rec.rr_s[next[i]]));
            if (next[i] < rec.beats()) remaining = true;
        }
        router.pump();
        if (!remaining) break;
    }
    router.drain_all();
    router.close_journals();

    const qs::fleet_snapshot live = router.fleet();
    EXPECT_GT(live.windows, 0u);
    EXPECT_EQ(qj::rebuild_fleet_snapshot(dir.string()), live);

    std::uint64_t reports = 0, beats = 0;
    for (const std::string& path : qj::journal_files(dir.string())) {
        const std::vector<std::uint8_t> bytes = read_file(path);
        std::unordered_map<std::uint64_t, std::vector<real>> logged;
        walk_records(bytes, [&](qj::record_type type,
                                std::span<const std::uint8_t> body) {
            const auto sid = field_at<std::uint64_t>(body, 0);
            if (type == qj::record_type::beat) {
                ++beats;
                logged[sid].push_back(field_at<real>(body, 8));
            } else if (type == qj::record_type::report) {
                ++reports;
                const auto t_start = field_at<real>(body, 8);
                const auto t_end = field_at<real>(body, 16);
                const auto used = field_at<std::uint64_t>(body, 121);
                const std::vector<real>& ts = logged[sid];
                EXPECT_TRUE(std::any_of(ts.begin(), ts.end(),
                                        [&](real t) { return t >= t_end; }))
                    << "session " << sid << " window ending " << t_end;
                EXPECT_GE(std::count_if(ts.begin(), ts.end(),
                                        [&](real t) {
                                            return t >= t_start && t < t_end;
                                        }),
                          static_cast<std::ptrdiff_t>(used))
                    << "session " << sid << " window ending " << t_end;
            }
        });
    }
    EXPECT_EQ(reports, live.windows);
    std::uint64_t delivered = 0;
    for (const auto& rec : fx.records) delivered += rec.beats();
    EXPECT_EQ(beats, delivered);
}

TEST(JournalRecoveryTest, ShardSpanningUnitsRebuildBitIdentically) {
    // A mixed-engine 3-shard router fed at the live cadence: each router
    // pass is one scheduler pass whose drain units mix shards (every
    // engine runs on more than one shard), and each shard journals only
    // its own slices' partials.  The rebuild must still equal fleet()
    // over every column.
    const fs::path dir = temp_dir("journal-one-pass");
    const journaled_fixture fx(16);
    qs::router_options opt;
    opt.shards = 3;
    opt.shard.threads = 2;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.configs[i]);

    // Sessions that start on the same engine land on different shards.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> shards_of;
    for (unsigned i = 0; i < fx.records.size(); ++i)
        shards_of[router.at(i).staged_system()->engine_hash()].push_back(
            router.shard_of(i));
    bool spans = false;
    for (const auto& [hash, shards] : shards_of)
        spans = spans || std::any_of(shards.begin(), shards.end(),
                                     [&](std::size_t k) {
                                         return k != shards.front();
                                     });
    EXPECT_TRUE(spans);

    std::vector<std::size_t> next(fx.records.size(), 0);
    for (std::size_t step = 0, more = 1; more != 0; ++step) {
        more = 0;
        for (unsigned i = 0; i < fx.records.size(); ++i) {
            const auto& rec = fx.records[i];
            const std::size_t k = 1 + (step + i) % 3;
            for (std::size_t j = 0; j < k && next[i] < rec.beats();
                 ++j, ++next[i])
                ASSERT_TRUE(router.ingest(i, rec.beat_time_s[next[i]],
                                          rec.rr_s[next[i]]));
            if (next[i] < rec.beats()) more = 1;
        }
        router.pump();
    }
    router.drain_all();
    router.close_journals();

    const qs::fleet_snapshot live = router.fleet();
    EXPECT_GT(live.windows, 0u);
    EXPECT_GT(live.lane_slots_filled, 0u);
    EXPECT_EQ(qj::rebuild_fleet_snapshot(dir.string()), live);
}

TEST(JournalRecoveryTest, TornTailToleratedAtEveryTruncationOffset) {
    const fs::path dir = temp_dir("journal-torn");
    const std::vector<std::uint8_t> bytes = small_journal_bytes(dir);
    ASSERT_GT(bytes.size(), qj::journal_header_bytes);

    const fs::path cut_dir = temp_dir("journal-torn-cut");
    const fs::path cut_file =
        cut_dir / ("shard-0" + std::string(qj::journal_file_extension));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::span<const std::uint8_t> prefix{bytes.data(), cut};
        // Every prefix of a valid journal scans without throwing: a crash
        // can only truncate, so truncation is never corruption.
        qj::journal_scan scan;
        ASSERT_NO_THROW(scan = qj::scan_journal_bytes(prefix)) << "cut " << cut;
        EXPECT_EQ(scan.header_present, cut >= qj::journal_header_bytes);
        EXPECT_FALSE(scan.clean_close);

        // ...and recovery over the truncated file still rebuilds.
        write_file(cut_file, prefix);
        ASSERT_NO_THROW(qj::rebuild_fleet_snapshot(cut_dir.string()))
            << "cut " << cut;
    }

    // The untruncated journal is clean and counts no torn tail.
    const qj::journal_scan whole = qj::scan_journal_bytes(bytes);
    EXPECT_TRUE(whole.clean_close);
    EXPECT_FALSE(whole.torn_tail);

    // A torn tail is visible in the rebuilt telemetry: cut one byte off
    // the footer record and the rebuild flags exactly one torn tail.
    write_file(cut_file, std::span{bytes.data(), bytes.size() - 1});
    const qs::fleet_snapshot torn =
        qj::rebuild_fleet_snapshot(cut_dir.string());
    EXPECT_EQ(torn.journal_torn_tails, 1u);
    EXPECT_GT(torn.windows, 0u);  // every complete record still counted
}

TEST(JournalRecoveryTest, MidFileCorruptionThrowsLoudly) {
    const fs::path dir = temp_dir("journal-corrupt");
    const std::vector<std::uint8_t> bytes = small_journal_bytes(dir);

    // Flip one payload byte of the first record: CRC mismatch.
    {
        auto corrupt = bytes;
        corrupt[qj::journal_header_bytes + qj::journal_frame_bytes + 2] ^= 0x40;
        EXPECT_THROW(qj::scan_journal_bytes(corrupt), qs::wire_error);
    }
    // Bad magic.
    {
        auto corrupt = bytes;
        corrupt[0] ^= 0xFF;
        EXPECT_THROW(qj::scan_journal_bytes(corrupt), qs::wire_error);
    }
    // Unknown version.
    {
        auto corrupt = bytes;
        corrupt[4] = 0x77;
        EXPECT_THROW(qj::scan_journal_bytes(corrupt), qs::wire_error);
    }
    // Zero record length (a CRC cannot protect the length that frames
    // it, so the scanner validates it directly).
    {
        auto corrupt = bytes;
        for (std::size_t i = 0; i < 4; ++i)
            corrupt[qj::journal_header_bytes + i] = 0;
        EXPECT_THROW(qj::scan_journal_bytes(corrupt), qs::wire_error);
    }
    // Unknown record type with a *valid* CRC: rejected, not skipped.
    {
        auto crafted = journal_header();
        const std::uint8_t none[] = {0};
        put_record(crafted, 99, {none, 0});
        EXPECT_THROW(qj::scan_journal_bytes(crafted), qs::wire_error);
    }
    // Records after the footer are structural corruption.
    {
        auto crafted = journal_header();
        std::vector<std::uint8_t> footer_body;
        put_u64(footer_body, 0);
        put_u64(footer_body, 0);
        put_u64(footer_body, 1);
        put_record(crafted,
                   static_cast<std::uint8_t>(qj::record_type::footer),
                   footer_body);
        std::vector<std::uint8_t> beat_body;
        put_u64(beat_body, 0);
        put_u64(beat_body, 0);
        put_u64(beat_body, 0);
        put_record(crafted, static_cast<std::uint8_t>(qj::record_type::beat),
                   beat_body);
        EXPECT_THROW(qj::scan_journal_bytes(crafted), qs::wire_error);
    }
    // Footer counters that disagree with the scan.
    {
        auto crafted = journal_header();
        std::vector<std::uint8_t> footer_body;
        put_u64(footer_body, 42);  // claims 42 records; the scan saw 0
        put_u64(footer_body, 0);
        put_u64(footer_body, 1);
        put_record(crafted,
                   static_cast<std::uint8_t>(qj::record_type::footer),
                   footer_body);
        EXPECT_THROW(qj::scan_journal_bytes(crafted), qs::wire_error);
    }
}

TEST(JournalRecoveryTest, EmptyAndHeaderOnlyLogsRebuildEmptySnapshot) {
    const fs::path dir = temp_dir("journal-empty");
    EXPECT_EQ(qj::rebuild_fleet_snapshot(dir.string()), qs::fleet_snapshot{});

    // Header-only log: a crash right after open(), before any record.
    const auto hdr = journal_header();
    write_file(dir / "shard-0.qpsaj", hdr);
    EXPECT_EQ(qj::rebuild_fleet_snapshot(dir.string()), qs::fleet_snapshot{});

    // Incomplete shard set: two-shard headers but only one log present.
    const fs::path partial = temp_dir("journal-partial");
    write_file(partial / "shard-0.qpsaj", journal_header(0, 2));
    EXPECT_THROW(qj::rebuild_fleet_snapshot(partial.string()), qs::wire_error);
}

// -------------------------------------------------------------- wire v2

TEST(FleetWireV2Test, TelemetryColumnsRoundTripAndOldPayloadsLoad) {
    qs::fleet_snapshot snap;
    snap.windows = 3;
    snap.high_water_alarms = 5;
    snap.journal_appends = 1234;
    snap.journal_bytes = 987654;
    snap.journal_fsyncs = 17;
    snap.journal_torn_tails = 1;
    snap.lf_sum = 1.0 / 3.0;

    const std::vector<std::uint8_t> bytes = snap.serialize();
    EXPECT_EQ(qs::fleet_snapshot::deserialize(bytes), snap);

    // Merge keeps the new columns lossless (counts add).
    qs::fleet_snapshot twice = snap;
    twice += snap;
    EXPECT_EQ(twice.high_water_alarms, 10u);
    EXPECT_EQ(twice.journal_appends, 2468u);
    EXPECT_EQ(twice.journal_torn_tails, 2u);

    // A v1 payload (the first layout: no trailing telemetry block) still
    // loads, with the new columns zero.
    qs::fleet_snapshot v1_content = snap;
    v1_content.high_water_alarms = 0;
    v1_content.journal_appends = 0;
    v1_content.journal_bytes = 0;
    v1_content.journal_fsyncs = 0;
    v1_content.journal_torn_tails = 0;
    const std::vector<std::uint8_t> v1_bytes = snapshot_as_version(snap, 1);
    EXPECT_EQ(qs::fleet_snapshot::deserialize(v1_bytes), v1_content);
}

// -------------------------------------------------------- arena lomb

TEST(ArenaResampledTest, CoreMatchesVectorOverloadBitwise) {
    // Irregular beat times, HRV-shaped series.
    std::vector<real> t, x;
    real now = 0.0;
    for (int i = 0; i < 240; ++i) {
        const real rr = 0.8 + 0.05 * std::sin(0.3 * i) + 0.002 * (i % 7);
        now += rr;
        t.push_back(now);
        x.push_back(rr);
    }

    qpsa::lomb::resampled_psd_options opt;
    opt.fft_size = 256;
    const qpsa::dsp::sampled_spectrum want =
        qpsa::lomb::resampled_psd(t, x, opt);

    const qpsa::dsp::fft_split_radix fft(opt.fft_size);
    qpsa::util::arena scratch;
    std::vector<real> got(opt.fft_size / 2);
    qpsa::lomb::resampled_psd(t, x, opt, fft, scratch,
                              {got.data(), got.size()});

    ASSERT_EQ(want.power.size(), got.size());
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k], want.power[k]) << "bin " << k;
}
