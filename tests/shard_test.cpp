// Sharded fleet core tests: consistent-hash placement properties
// (distribution balance, bounded key movement), the shard_router's
// topology-blind determinism vs a serial baseline, the fleet_snapshot
// wire format round trip (including genuine version skew via the
// serialize(version) overload), live session migration
// (extract/adopt bit-identity mid-window and mid-governor-dwell,
// K=1 -> 2 -> 4 reshapes), and multi-shard concurrency -- drains and
// snapshot-vs-migration races (the tsan job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <vector>

#include "qpsa/journal/report_reader.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/service/service.hpp"
#include "quality_ladder.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace qp = qpsa::physio;
namespace qs = qpsa::service;
namespace qf = qpsa::wfft;
namespace qw = qpsa::wavelet;

namespace {

qcore::monitor_options paper_monitor() {
    qcore::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

/// The engine mix the sharded fleets run (covers mesh-FFT, fixed-point
/// and whole-window kinds, including the new Welch estimator).
std::vector<qcore::psa_config> mode_mix() {
    return {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::burg_ar(),
        qcore::psa_config::welch(),
    };
}

std::vector<qcore::window_report> serial_reports(const qp::rr_record& rec,
                                                 qcore::psa_config cfg) {
    qcore::streaming_monitor mon(std::move(cfg), paper_monitor());
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    std::vector<qcore::window_report> out;
    while (auto rep = mon.poll()) out.push_back(*rep);
    return out;
}

void expect_reports_identical(std::span<const qcore::window_report> got,
                              std::span<const qcore::window_report> want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].beats, want[i].beats);
        EXPECT_EQ(got[i].bands.lf, want[i].bands.lf);
        EXPECT_EQ(got[i].bands.hf, want[i].bands.hf);
        EXPECT_EQ(got[i].bands.total, want[i].bands.total);
        EXPECT_EQ(got[i].ops, want[i].ops);
    }
}

std::string patient_name(unsigned i) {
    return "patient-" + std::to_string(i);
}

/// Placement census of `keys` synthetic patient ids over the map.
std::vector<std::size_t> census(const qs::shard_map& map, std::size_t keys) {
    std::vector<std::size_t> counts(map.slot_count(), 0);
    for (std::size_t i = 0; i < keys; ++i)
        ++counts[map.shard_for(patient_name(static_cast<unsigned>(i)))];
    return counts;
}

/// A fully populated snapshot exercising every wire field.
qs::fleet_snapshot fat_snapshot() {
    qs::fleet_snapshot s;
    s.windows = 1234;
    s.beats = 98765;
    s.arrhythmia_windows = 17;
    s.energy.windows = 1234;
    s.energy.ops.adds = 11;
    s.energy.ops.muls = 22;
    s.energy.ops.divs = 33;
    s.energy.ops.sqrts = 44;
    s.energy.ops.cmps = 55;
    s.energy.ops.trigs = 66;
    s.energy.ops.loads = 77;
    s.energy.ops.stores = 88;
    s.energy.cycles = 1.25e9;
    s.energy.time_nominal_s = 0.125;
    s.energy.energy_nominal_j = 3.0e-3;
    s.energy.energy_vfs_j = 1.0e-3;
    for (std::size_t i = 0; i < s.by_engine.size(); ++i) {
        s.by_engine[i].windows = 10 + i;
        s.by_engine[i].beats = 100 + i;
        s.by_engine[i].energy_nominal_j = 1e-4 * static_cast<real>(i + 1);
    }
    s.beats_dropped = 3;
    s.beats_rejected = 2;
    s.beats_overwritten = 1;
    s.drop_alarms = {{7, 3, 2, 1}, {12, 0, 5, 0}};
    s.mode_switches = 9;
    s.battery_fraction_min = 0.3125;
    s.quality = {{7, 2, qcore::engine_class::fixed_q15, 0.75},
                 {12, 1, qcore::engine_class::welch, 0.5}};
    s.lf_sum = 1.0 / 3.0;  // non-representable decimals: bit-exactness
    s.hf_sum = 2.0 / 7.0;  // matters, not round-tripping via text
    s.ratio_sum = 1.0e-17;
    return s;
}

}  // namespace

// ----------------------------------------------------------- shard_map

TEST(ShardMapTest, RendezvousDistributionIsBalanced) {
    const qs::shard_map map(8);
    const auto counts = census(map, 20000);
    const real mean = 20000.0 / 8.0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        EXPECT_GT(static_cast<real>(counts[k]), 0.8 * mean) << "shard " << k;
        EXPECT_LT(static_cast<real>(counts[k]), 1.2 * mean) << "shard " << k;
    }
}

TEST(ShardMapTest, RingDistributionIsBalanced) {
    qs::shard_map_options opt;
    opt.strategy = qs::shard_strategy::ring;
    opt.ring_vnodes = 256;
    const qs::shard_map map(8, opt);
    const auto counts = census(map, 20000);
    const real mean = 20000.0 / 8.0;
    // Ring balance is vnode-limited; 256 points per shard keeps every
    // shard within ~35 % of fair share with high margin.
    for (std::size_t k = 0; k < counts.size(); ++k) {
        EXPECT_GT(static_cast<real>(counts[k]), 0.65 * mean) << "shard " << k;
        EXPECT_LT(static_cast<real>(counts[k]), 1.35 * mean) << "shard " << k;
    }
}

TEST(ShardMapTest, AddingAShardMovesOnlyKeysItWins) {
    for (const auto strategy :
         {qs::shard_strategy::rendezvous, qs::shard_strategy::ring}) {
        qs::shard_map_options opt;
        opt.strategy = strategy;
        qs::shard_map map(7, opt);
        constexpr std::size_t keys = 20000;

        std::vector<std::size_t> before(keys);
        for (std::size_t i = 0; i < keys; ++i)
            before[i] = map.shard_for(patient_name(static_cast<unsigned>(i)));

        const std::size_t added = map.add_shard();
        EXPECT_EQ(added, 7u);
        EXPECT_EQ(map.shard_count(), 8u);

        std::size_t moved = 0;
        for (std::size_t i = 0; i < keys; ++i) {
            const std::size_t now =
                map.shard_for(patient_name(static_cast<unsigned>(i)));
            if (now != before[i]) {
                ++moved;
                // A key only ever moves *to* the new shard.
                EXPECT_EQ(now, added);
            }
        }
        // Expected movement is 1/8 of the keys; allow 2x as the bound.
        EXPECT_GT(moved, 0u);
        EXPECT_LT(static_cast<real>(moved), 2.0 * keys / 8.0)
            << "strategy " << static_cast<int>(strategy);
    }
}

TEST(ShardMapTest, RemovingAShardMovesOnlyItsOwnKeys) {
    for (const auto strategy :
         {qs::shard_strategy::rendezvous, qs::shard_strategy::ring}) {
        qs::shard_map_options opt;
        opt.strategy = strategy;
        qs::shard_map map(8, opt);
        constexpr std::size_t keys = 20000;

        std::vector<std::size_t> before(keys);
        for (std::size_t i = 0; i < keys; ++i)
            before[i] = map.shard_for(patient_name(static_cast<unsigned>(i)));

        map.remove_shard(3);
        EXPECT_EQ(map.shard_count(), 7u);
        EXPECT_FALSE(map.is_active(3));

        for (std::size_t i = 0; i < keys; ++i) {
            const std::size_t now =
                map.shard_for(patient_name(static_cast<unsigned>(i)));
            EXPECT_NE(now, 3u);
            // Keys on surviving shards do not move at all.
            if (before[i] != 3) {
                EXPECT_EQ(now, before[i]);
            }
        }
    }
}

TEST(ShardMapTest, PlacementIsAPureFunctionOfIdAndSalt) {
    const qs::shard_map a(5);
    const qs::shard_map b(5);
    for (unsigned i = 0; i < 500; ++i)
        EXPECT_EQ(a.shard_for(patient_name(i)), b.shard_for(patient_name(i)));

    qs::shard_map_options salted;
    salted.salt = 0x1234;
    const qs::shard_map c(5, salted);
    std::size_t differs = 0;
    for (unsigned i = 0; i < 500; ++i)
        if (a.shard_for(patient_name(i)) != c.shard_for(patient_name(i)))
            ++differs;
    EXPECT_GT(differs, 0u);
}

// ---------------------------------------------------------- wire format

TEST(FleetWireTest, RoundTripIsLossless) {
    const qs::fleet_snapshot snap = fat_snapshot();
    const std::vector<std::uint8_t> bytes = snap.serialize();
    const qs::fleet_snapshot back = qs::fleet_snapshot::deserialize(bytes);
    EXPECT_EQ(back, snap);
    // Default-constructed snapshots round-trip too (empty vectors).
    const qs::fleet_snapshot empty;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(empty.serialize()), empty);
}

TEST(FleetWireTest, RoundTripIsLosslessUnderMerge) {
    // serialize -> deserialize -> merge must equal the in-process merge,
    // bit for bit (the cross-process aggregation path).
    qs::fleet_snapshot a = fat_snapshot();
    qs::fleet_snapshot b = fat_snapshot();
    b.windows = 4321;
    b.battery_fraction_min = 0.125;
    b.lf_sum = 5.0 / 11.0;
    b.quality[0].session_id = 99;

    qs::fleet_snapshot direct = a;
    direct += b;

    qs::fleet_snapshot wired =
        qs::fleet_snapshot::deserialize(a.serialize());
    wired += qs::fleet_snapshot::deserialize(b.serialize());
    EXPECT_EQ(wired, direct);
}

TEST(FleetWireTest, MalformedBytesAreRejected) {
    const qs::fleet_snapshot snap = fat_snapshot();
    std::vector<std::uint8_t> bytes = snap.serialize();

    // Truncation at every prefix length must throw, never crash or
    // silently succeed.
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{11},
                            bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        EXPECT_THROW(qs::fleet_snapshot::deserialize(prefix), qs::wire_error)
            << "cut " << cut;
    }

    auto corrupt = bytes;
    corrupt[0] ^= 0xFF;  // magic
    EXPECT_THROW(qs::fleet_snapshot::deserialize(corrupt), qs::wire_error);

    corrupt = bytes;
    corrupt[4] = 0x77;  // version
    EXPECT_THROW(qs::fleet_snapshot::deserialize(corrupt), qs::wire_error);

    corrupt = bytes;
    corrupt[6] = 0xFF;  // engine-kind count beyond this build
    EXPECT_THROW(qs::fleet_snapshot::deserialize(corrupt), qs::wire_error);

    corrupt = bytes;
    corrupt.push_back(0);  // trailing garbage
    EXPECT_THROW(qs::fleet_snapshot::deserialize(corrupt), qs::wire_error);
}

// --------------------------------------------------------- shard_router

namespace {

struct sharded_fixture {
    std::vector<qp::rr_record> records;
    std::vector<qcore::psa_config> configs;
    std::vector<std::vector<qcore::window_report>> serial;

    explicit sharded_fixture(unsigned patients, real seconds = 400.0) {
        const auto mix = mode_mix();
        for (unsigned i = 0; i < patients; ++i) {
            records.push_back(qp::record_for(
                qp::make_patient(i % 2 == 0 ? qp::cohort::sinus_arrhythmia
                                            : qp::cohort::healthy,
                                 i % 64),
                seconds));
            configs.push_back(mix[i % mix.size()]);
            serial.push_back(serial_reports(records.back(), configs.back()));
        }
    }

    qs::session_config session(unsigned i) const {
        qs::session_config cfg;
        cfg.patient_id = patient_name(i);
        cfg.analysis = configs[i];
        cfg.monitor = paper_monitor();
        cfg.ingest_capacity = 4096;
        return cfg;
    }
};

}  // namespace

TEST(ShardRouterTest, TopologyBlindAndBitIdenticalToSerial) {
    const sharded_fixture fx(12);
    qs::plan_cache cache;

    // Serial baseline fleet: one manager, same admission order.
    qs::service_options serial_opt;
    qs::session_manager serial_mgr(serial_opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        serial_mgr.add_session(fx.session(i));

    qs::router_options opt;
    opt.shards = 3;
    qs::shard_router router(opt, &cache);
    EXPECT_EQ(router.shard_count(), 3u);

    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto id = router.add_session(fx.session(i));
        EXPECT_EQ(id, i);
        // Placement agrees with the router's published map.
        EXPECT_EQ(router.shard_of(id),
                  router.placement().shard_for(patient_name(i)));
        // Stream seeds are topology-blind: derived from the global id
        // exactly as the serial manager derives them.
        EXPECT_EQ(router.at(id).seed(), serial_mgr.at(id).seed());
    }
    // Every shard got someone (12 patients over 3 shards).
    for (std::size_t k = 0; k < router.shard_count(); ++k)
        EXPECT_GT(router.shard(k).session_count(), 0u);

    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto& rec = fx.records[i];
        for (std::size_t b = 0; b < rec.beats(); ++b) {
            ASSERT_TRUE(router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
            ASSERT_TRUE(serial_mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
        }
    }
    router.drain_all();
    serial_mgr.drain_all();

    std::uint64_t serial_windows = 0;
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);
        serial_windows += fx.serial[i].size();
    }

    // Merged snapshot counts equal the serial fleet's (sums of reals are
    // merge-order-dependent in the last bits, so the determinism bar is
    // per-session reports + integer tallies).
    const auto merged = router.fleet();
    const auto want = serial_mgr.fleet();
    EXPECT_EQ(merged.windows, serial_windows);
    EXPECT_EQ(merged.windows, want.windows);
    EXPECT_EQ(merged.beats, want.beats);
    EXPECT_EQ(merged.arrhythmia_windows, want.arrhythmia_windows);
    EXPECT_EQ(merged.energy.ops, want.energy.ops);
    for (std::size_t e = 0; e < merged.by_engine.size(); ++e) {
        EXPECT_EQ(merged.by_engine[e].windows, want.by_engine[e].windows);
        EXPECT_EQ(merged.by_engine[e].beats, want.by_engine[e].beats);
    }
    // The Welch engine served windows through the fleet.
    EXPECT_GT(merged.engine(qcore::engine_class::welch).windows, 0u);

    // Per-shard window counts partition the fleet total.
    std::uint64_t shard_sum = 0;
    for (std::size_t k = 0; k < router.shard_count(); ++k)
        shard_sum += router.shard_fleet(k).windows;
    EXPECT_EQ(shard_sum, merged.windows);

    // All shards shared one plan cache: distinct engines built once.
    EXPECT_EQ(router.cache_stats().entries, mode_mix().size());
}

TEST(ShardRouterTest, GlobalCeilingIsTheSumOfShardCeilings) {
    // Adding shards raises fleet capacity: the router's routing table
    // holds shards * max_sessions entries, so a fleet can admit more
    // patients than any single shard's ceiling.
    qs::router_options opt;
    opt.shards = 2;
    opt.shard.max_sessions = 12;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < 13; ++i) {
        qs::session_config cfg;
        cfg.patient_id = patient_name(i);
        cfg.analysis = qcore::psa_config::conventional();
        cfg.monitor = paper_monitor();
        EXPECT_EQ(router.add_session(std::move(cfg)), i);
    }
    EXPECT_EQ(router.session_count(), 13u);
    EXPECT_EQ(router.shard(0).session_count() +
                  router.shard(1).session_count(),
              13u);
}

TEST(ShardRouterTest, HighWaterCallbackNamesTheGlobalId) {
    // The backpressure alarm names the session by the id add_session
    // returned, not by its slot on the owning shard: under K >= 2 two
    // shards' slots collide, so a slot cannot tell the edge which
    // session to shed.
    qs::router_options opt;
    opt.shards = 2;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    std::vector<std::uint64_t> alarmed;
    std::uint64_t id = 0;
    std::size_t local = 0;
    for (unsigned i = 0;; ++i) {
        ASSERT_LT(i, 64u) << "no session landed off its global slot";
        qs::session_config cfg;
        cfg.patient_id = patient_name(i);
        cfg.analysis = qcore::psa_config::conventional();
        cfg.monitor = paper_monitor();
        cfg.ingest_capacity = 8;
        cfg.high_water_fraction = 0.5;  // alarm at 4 buffered beats
        cfg.on_high_water = [&alarmed](std::uint64_t session_id,
                                       std::size_t, std::size_t) {
            alarmed.push_back(session_id);
        };
        local = router.shard(1).session_count();
        id = router.add_session(std::move(cfg));
        if (router.shard_of(id) == 1 && local != id) break;
    }
    for (int b = 0; b < 6; ++b)
        ASSERT_TRUE(router.ingest(id, 1.0 + 0.8 * b, 0.8));
    ASSERT_EQ(alarmed.size(), 1u);
    EXPECT_EQ(alarmed[0], id);
    EXPECT_NE(alarmed[0], local);
}

TEST(ShardRouterTest, WireRoundTripOfShardSnapshotsEqualsInProcessMerge) {
    const sharded_fixture fx(8);
    qs::router_options opt;
    opt.shards = 4;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto& rec = fx.records[i];
        for (std::size_t b = 0; b < rec.beats(); ++b)
            ASSERT_TRUE(router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
    }
    router.drain_all();

    // Ship every shard's snapshot through the wire and merge on the
    // "aggregator" side; the result must equal the in-process merge
    // bit for bit, including per-engine tallies and per-session rows.
    qs::fleet_snapshot wired;
    for (std::size_t k = 0; k < router.shard_count(); ++k) {
        const auto bytes = router.shard_fleet(k).serialize();
        const auto snap = qs::fleet_snapshot::deserialize(bytes);
        if (k == 0)
            wired = snap;
        else
            wired += snap;
    }
    EXPECT_EQ(wired, router.fleet());

    // Global session ids in the remapped rows stay within the global
    // id space (local ids would collide across shards).
    for (const auto& q : wired.quality)
        EXPECT_LT(q.session_id, router.session_count());
}

TEST(ShardRouterTest, ConcurrentMultiShardDrain) {
    // One producer thread per patient ingesting while one pumper thread
    // per shard drains its own shard -- shard passes run on the router's
    // one scheduler and serialize on its pass mutex, which tsan checks
    // here.  A snapshot thread stresses fleet() against concurrent
    // admission-published state.
    const sharded_fixture fx(16, 300.0);
    qs::router_options opt;
    opt.shards = 4;
    opt.shard.threads = 1;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));

    std::atomic<bool> stop{false};
    std::vector<std::thread> pumpers;
    for (std::size_t k = 0; k < router.shard_count(); ++k)
        pumpers.emplace_back([&router, &stop, k] {
            while (!stop.load(std::memory_order_acquire)) {
                router.shard(k).pump();
                std::this_thread::yield();
            }
        });
    std::thread snapshotter([&router, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto snap = router.fleet();
            (void)snap.windows;
            std::this_thread::yield();
        }
    });

    {
        std::vector<std::thread> producers;
        for (unsigned i = 0; i < fx.records.size(); ++i)
            producers.emplace_back([&router, &fx, i] {
                const auto& rec = fx.records[i];
                for (std::size_t b = 0; b < rec.beats(); ++b)
                    while (!router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                        std::this_thread::yield();
            });
        for (auto& t : producers) t.join();
    }

    stop.store(true, std::memory_order_release);
    for (auto& t : pumpers) t.join();
    snapshotter.join();
    router.drain_all();

    for (unsigned i = 0; i < fx.records.size(); ++i)
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);
}

// ------------------------------------------------------ one-pass router
//
// A router pass is one scheduler pass over every shard on one pool: drain
// units may span shards, and each shard merges its own slices' partials
// in slice order.

namespace {

/// Admit the fixture and feed it 1-7 beats per session per pump, then
/// drain: the live cadence, so passes mix due, waiting and unstarted
/// sessions from every shard.
void trickle_through(const sharded_fixture& fx, qs::shard_router& router) {
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));
    std::vector<std::size_t> next(fx.records.size(), 0);
    for (std::size_t step = 0, more = 1; more != 0; ++step) {
        more = 0;
        for (unsigned i = 0; i < fx.records.size(); ++i) {
            const auto& rec = fx.records[i];
            const std::size_t k = 1 + (step + i) % 7;
            for (std::size_t j = 0; j < k && next[i] < rec.beats();
                 ++j, ++next[i])
                ASSERT_TRUE(router.ingest(i, rec.beat_time_s[next[i]],
                                          rec.rr_s[next[i]]));
            if (next[i] < rec.beats()) more = 1;
        }
        router.pump();
    }
    router.drain_all();
}

}  // namespace

TEST(OnePassRouterTest, ShardCountChangesNoReportOrIntegerTally) {
    // K = 1/2/4/8 over one input: every session gets the serial reports
    // and the fleet the same integer tallies.  (Sums of reals depend on
    // how windows fall into units, so they may differ in the last bits.)
    // At every K the shard snapshots shipped through the wire and merged
    // equal the in-process merge, and their windows sum to the fleet's.
    const sharded_fixture fx(12);
    const auto run = [&](std::size_t shards) {
        qs::router_options opt;
        opt.shards = shards;
        opt.shard.threads = 1;
        opt.shard.scheduler.batch_size = 3;  // multi-unit passes
        auto cache = std::make_unique<qs::plan_cache>();
        auto router = std::make_unique<qs::shard_router>(opt, cache.get());
        trickle_through(fx, *router);
        EXPECT_EQ(router->shard(0).worker_count(), shards);
        for (unsigned i = 0; i < fx.records.size(); ++i)
            expect_reports_identical(router->at(i).reports(), fx.serial[i]);
        return std::pair{std::move(router), std::move(cache)};
    };

    const auto [one, one_cache] = run(1);
    const qs::fleet_snapshot want = one->fleet();
    EXPECT_GT(want.windows, 0u);
    for (const std::size_t shards : {2u, 4u, 8u}) {
        const auto [router, cache] = run(shards);
        const qs::fleet_snapshot got = router->fleet();
        qs::fleet_snapshot wired;
        std::uint64_t shard_windows = 0;
        for (std::size_t k = 0; k < shards; ++k) {
            const qs::fleet_snapshot part = router->shard_fleet(k);
            shard_windows += part.windows;
            const auto back = qs::fleet_snapshot::deserialize(part.serialize());
            if (k == 0)
                wired = back;
            else
                wired += back;
        }
        EXPECT_EQ(wired, got) << shards;
        EXPECT_EQ(shard_windows, got.windows) << shards;
        EXPECT_EQ(got.windows, want.windows) << shards;
        EXPECT_EQ(got.beats, want.beats) << shards;
        EXPECT_EQ(got.arrhythmia_windows, want.arrhythmia_windows) << shards;
        EXPECT_EQ(got.energy.ops, want.energy.ops) << shards;
        EXPECT_EQ(got.beats_rejected, want.beats_rejected) << shards;
        for (std::size_t e = 0; e < got.by_engine.size(); ++e) {
            EXPECT_EQ(got.by_engine[e].windows, want.by_engine[e].windows);
            EXPECT_EQ(got.by_engine[e].beats, want.by_engine[e].beats);
        }
    }
}

TEST(OnePassRouterTest, JournaledShardSnapshotsDoNotDependOnPoolSize) {
    // One journaled 3-shard router at 1 and 4 threads per shard (pools of
    // 3 and 12 workers): every shard_fleet(k) is bit-identical, energy
    // floats and journal counters included.  windows_stolen counts
    // scheduling events, so it is normalized.
    const sharded_fixture fx(12);
    const auto run = [&](std::size_t threads) {
        const auto dir = std::filesystem::path(::testing::TempDir()) /
                         ("qpsa-one-pass-" + std::to_string(threads));
        std::filesystem::remove_all(dir);
        qs::router_options opt;
        opt.shards = 3;
        opt.shard.threads = threads;
        opt.shard.scheduler.batch_size = 2;
        opt.journal_dir = dir.string();
        qs::plan_cache cache;
        qs::shard_router router(opt, &cache);
        trickle_through(fx, router);
        router.close_journals();
        std::vector<qs::fleet_snapshot> snaps;
        for (std::size_t k = 0; k < router.shard_count(); ++k) {
            snaps.push_back(router.shard_fleet(k));
            snaps.back().windows_stolen = 0;
        }
        return snaps;
    };

    const auto narrow = run(1);
    const auto wide = run(4);
    ASSERT_EQ(narrow.size(), wide.size());
    for (std::size_t k = 0; k < narrow.size(); ++k) {
        EXPECT_GT(narrow[k].windows, 0u) << "shard " << k;
        EXPECT_GT(narrow[k].journal_bytes, 0u) << "shard " << k;
        EXPECT_EQ(wide[k], narrow[k]) << "shard " << k;
    }
}

TEST(OnePassRouterTest, ShardSnapshotsEqualStandaloneManagers) {
    // Each shard's share of a pass is cut into slices the way a pass over
    // that shard alone cuts its units, one partial per slice: a router
    // shard must equal a standalone manager holding the same sessions and
    // pumped at the same points, every column but the drain-scheduler
    // telemetry (lane groups span shards only in the router).  Units of 3
    // over 24 sessions make shard runs straddle the router's unit cuts, and
    // 30-210 beats per pump close windows in most sessions every pass.
    const sharded_fixture fx(24, 900.0);
    qs::router_options opt;
    opt.shards = 3;
    opt.shard.threads = 1;
    opt.shard.scheduler.batch_size = 3;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    std::vector<std::unique_ptr<qs::session_manager>> solo;
    for (std::size_t k = 0; k < opt.shards; ++k) {
        qs::service_options sopt;
        sopt.threads = 2;
        sopt.scheduler.batch_size = 3;
        solo.push_back(std::make_unique<qs::session_manager>(sopt, &cache));
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> solo_id;
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto id = router.add_session(fx.session(i));
        qs::session_config cfg = fx.session(i);
        cfg.seed = router.at(id).seed();
        const std::size_t k = router.shard_of(id);
        solo_id.emplace_back(k, solo[k]->add_session(std::move(cfg)));
    }

    std::vector<std::size_t> next(fx.records.size(), 0);
    for (std::size_t step = 0, more = 1; more != 0; ++step) {
        more = 0;
        for (unsigned i = 0; i < fx.records.size(); ++i) {
            const auto& rec = fx.records[i];
            const auto [k, local] = solo_id[i];
            for (std::size_t j = 0; j < 30 * (1 + (step + i) % 7) &&
                                    next[i] < rec.beats();
                 ++j, ++next[i]) {
                const real t = rec.beat_time_s[next[i]];
                const real rr = rec.rr_s[next[i]];
                ASSERT_TRUE(router.ingest(i, t, rr));
                ASSERT_TRUE(solo[k]->ingest(local, t, rr));
            }
            if (next[i] < rec.beats()) more = 1;
        }
        router.pump();
        for (const auto& m : solo) m->pump();
    }
    router.drain_all();
    for (const auto& m : solo) m->drain_all();

    const auto analysis = [](qs::fleet_snapshot s) {
        s.windows_stolen = 0;
        s.lane_slots_filled = 0;
        s.lane_slots_offered = 0;
        return s;
    };
    std::uint64_t router_filled = 0, solo_filled = 0;
    for (std::size_t k = 0; k < opt.shards; ++k) {
        const qs::fleet_snapshot got = router.shard_fleet(k);
        const qs::fleet_snapshot want = solo[k]->fleet();
        EXPECT_GT(want.windows, 0u) << "shard " << k;
        EXPECT_EQ(analysis(got), analysis(want)) << "shard " << k;
        router_filled += got.lane_slots_filled;
        solo_filled += want.lane_slots_filled;
    }
    EXPECT_GE(router_filled, solo_filled);
}

// --------------------------------------------------------- version skew

namespace {

/// fat_snapshot() plus the columns later wire versions appended, so
/// skew tests can see them zeroed by older encodings.
qs::fleet_snapshot fat_snapshot_v5() {
    qs::fleet_snapshot s = fat_snapshot();
    s.high_water_alarms = 4;   // v2 columns
    s.journal_appends = 100;
    s.journal_bytes = 6400;
    s.journal_fsyncs = 10;
    s.journal_torn_tails = 1;
    s.sessions_migrated_in = 2;  // v3 columns
    s.sessions_migrated_out = 3;
    s.hop_hits = 48;  // v4 columns
    s.hop_misses = 6;
    s.hop_bytes = 32768;
    s.windows_stolen = 5;  // v5 columns
    s.lane_slots_filled = 620;
    s.lane_slots_offered = 640;
    return s;
}

}  // namespace

TEST(FleetWireVersionSkewTest, OlderEncodingsLoadWithNewColumnsZeroed) {
    const qs::fleet_snapshot snap = fat_snapshot_v5();

    // A v4 peer's payload: the drain-scheduler columns did not exist yet.
    qs::fleet_snapshot want_v4 = snap;
    want_v4.windows_stolen = 0;
    want_v4.lane_slots_filled = 0;
    want_v4.lane_slots_offered = 0;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snap.serialize(4)), want_v4);

    // A v3 peer: no hop-cache telemetry either.
    qs::fleet_snapshot want_v3 = want_v4;
    want_v3.hop_hits = 0;
    want_v3.hop_misses = 0;
    want_v3.hop_bytes = 0;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snap.serialize(3)), want_v3);

    // A v2 peer: migration columns gone too.
    qs::fleet_snapshot want_v2 = want_v3;
    want_v2.sessions_migrated_in = 0;
    want_v2.sessions_migrated_out = 0;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snap.serialize(2)), want_v2);

    // A v1 peer: no high-water/journal telemetry either.
    qs::fleet_snapshot want_v1 = want_v2;
    want_v1.high_water_alarms = 0;
    want_v1.journal_appends = 0;
    want_v1.journal_bytes = 0;
    want_v1.journal_fsyncs = 0;
    want_v1.journal_torn_tails = 0;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snap.serialize(1)), want_v1);

    // Older payloads are smaller, not just zero-padded.
    EXPECT_LT(snap.serialize(1).size(), snap.serialize(2).size());
    EXPECT_LT(snap.serialize(2).size(), snap.serialize(3).size());
    EXPECT_LT(snap.serialize(3).size(), snap.serialize(4).size());
    EXPECT_LT(snap.serialize(4).size(), snap.serialize().size());
}

TEST(FleetWireVersionSkewTest, MixedVersionMergeEqualsInProcessMerge) {
    // An aggregator fed by one current shard and one v4 shard must merge
    // exactly like the in-process merge of the same (v4-truncated) data.
    const qs::fleet_snapshot current = fat_snapshot_v5();
    qs::fleet_snapshot old_peer = fat_snapshot_v5();
    old_peer.windows = 4321;
    old_peer.lf_sum = 5.0 / 11.0;

    qs::fleet_snapshot direct = current;
    direct += qs::fleet_snapshot::deserialize(old_peer.serialize(4));

    qs::fleet_snapshot wired =
        qs::fleet_snapshot::deserialize(current.serialize());
    wired += qs::fleet_snapshot::deserialize(old_peer.serialize(4));
    EXPECT_EQ(wired, direct);
}

TEST(FleetWireVersionSkewTest, FutureVersionIsRejected) {
    // Accept-older, reject-newer: a payload stamped one version past
    // this build must throw, not misparse.
    std::vector<std::uint8_t> bytes = fat_snapshot_v5().serialize();
    bytes[4] = static_cast<std::uint8_t>(qs::fleet_wire_version + 1);
    bytes[5] = 0;
    EXPECT_THROW(qs::fleet_snapshot::deserialize(bytes), qs::wire_error);
}

// ------------------------------------------------------- live migration

TEST(MigrationTest, ExtractAdoptMidWindowIsBitIdentical) {
    // Move a session whose ring is non-empty and whose monitor is mid-
    // window -- the hardest extraction point -- and finish the record on
    // the new shard.  Reports must equal the never-migrated serial run.
    const sharded_fixture fx(4);
    qs::router_options opt;
    opt.shards = 2;
    opt.shard.threads = 1;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));

    // Ingest 60 % of every record with NO drain: rings hold beats.
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto& rec = fx.records[i];
        for (std::size_t b = 0; b < rec.beats() * 3 / 5; ++b)
            ASSERT_TRUE(router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
    }

    const std::uint64_t moving = 1;
    const std::size_t source = router.shard_of(moving);
    qs::extracted_session es = router.extract_session(moving);
    EXPECT_EQ(es.state.global_id, moving);
    EXPECT_FALSE(es.state.ring.empty());  // genuinely mid-stream
    // The state survives its own wire format on the way over.
    es.state = qs::session_runtime_state::deserialize(es.state.serialize());
    router.adopt_session(es, 1 - source);
    EXPECT_EQ(router.shard_of(moving), 1 - source);

    for (unsigned i = 0; i < fx.records.size(); ++i) {
        const auto& rec = fx.records[i];
        for (std::size_t b = rec.beats() * 3 / 5; b < rec.beats(); ++b)
            ASSERT_TRUE(router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
    }
    router.drain_all();

    for (unsigned i = 0; i < fx.records.size(); ++i)
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);

    const auto fleet = router.fleet();
    EXPECT_EQ(fleet.sessions_migrated_out, 1u);
    EXPECT_EQ(fleet.sessions_migrated_in, 1u);
}

TEST(MigrationTest, ExtractWithWaitingBeatsReplaysAndJournalsOnce) {
    // Extract a session right after a pass that left its beats waiting
    // (they lie before the next window end, so the pass did not drain
    // them: they sit in its ring, not in its monitor or the source
    // shard's journal), adopt it on the other shard and finish the record
    // there.  The waiting beats travel in the extracted ring and are
    // journaled exactly once, on the target shard.  Replaying the
    // session's journaled beats -- source file, then target file -- must
    // reproduce its reports bit for bit.
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "qpsa-waiting-migration";
    std::filesystem::remove_all(dir);
    const sharded_fixture fx(4);
    qs::router_options opt;
    opt.shards = 2;
    opt.shard.threads = 2;
    opt.journal_dir = dir.string();
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));

    const std::uint64_t moving = 1;
    const auto& rec = fx.records[moving];
    std::size_t b = 0;
    for (; b < rec.beats() / 2; ++b)
        ASSERT_TRUE(router.ingest(moving, rec.beat_time_s[b], rec.rr_s[b]));
    router.drain_all();
    const std::uint64_t windows_before = router.fleet().windows;
    EXPECT_GT(windows_before, 0u);

    // Beats strictly before the next window end: the pass leaves them.
    const real end = router.at(moving).monitor().next_window_end();
    const std::size_t waiting_from = b;
    for (; rec.beat_time_s[b] < end; ++b)
        ASSERT_TRUE(router.ingest(moving, rec.beat_time_s[b], rec.rr_s[b]));
    ASSERT_GT(b, waiting_from);
    EXPECT_FALSE(router.at(moving).ready());
    EXPECT_EQ(router.pump(), 0u);
    EXPECT_TRUE(router.at(moving).has_pending());
    EXPECT_EQ(router.fleet().windows, windows_before);

    const std::size_t source = router.shard_of(moving);
    const qs::extracted_session es = router.extract_session(moving);
    ASSERT_EQ(es.state.ring.size(), b - waiting_from);
    for (std::size_t k = 0; k < es.state.ring.size(); ++k)
        EXPECT_EQ(es.state.ring[k].t, rec.beat_time_s[waiting_from + k]);
    router.adopt_session(es, 1 - source);
    for (; b < rec.beats(); ++b)
        ASSERT_TRUE(router.ingest(moving, rec.beat_time_s[b], rec.rr_s[b]));
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        if (i == moving) continue;
        for (std::size_t k = 0; k < fx.records[i].beats(); ++k)
            ASSERT_TRUE(router.ingest(i, fx.records[i].beat_time_s[k],
                                      fx.records[i].rr_s[k]));
    }
    router.drain_all();
    for (unsigned i = 0; i < fx.records.size(); ++i)
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);
    router.close_journals();

    std::vector<qpsa::journal::beat_event> logged[2];
    for (std::size_t k = 0; k < 2; ++k)
        for (const auto& ev :
             qpsa::journal::scan_journal(router.journal(k)->path()).beats)
            if (ev.session_id == moving) logged[k].push_back(ev);
    const auto& src = logged[source];
    const auto& dst = logged[1 - source];
    EXPECT_EQ(src.size(), waiting_from);  // the waiting beats moved on
    EXPECT_EQ(src.size() + dst.size(), rec.beats());
    for (const auto& ev : dst)
        EXPECT_TRUE(std::none_of(src.begin(), src.end(), [&](const auto& s) {
            return s.beat_time_s == ev.beat_time_s;
        })) << "beat at " << ev.beat_time_s << " journaled on both shards";

    qcore::streaming_monitor replay(fx.configs[moving], paper_monitor());
    std::vector<qcore::window_report> replayed;
    for (const auto* part : {&src, &dst})
        for (const auto& ev : *part) {
            replay.push_beat(ev.beat_time_s, ev.rr_s);
            while (auto rep = replay.poll()) replayed.push_back(*rep);
        }
    expect_reports_identical(replayed, fx.serial[moving]);
    expect_reports_identical(router.at(moving).reports(), replayed);
}

TEST(MigrationTest, MidDwellGovernorMigrationPreservesSwitchSchedule) {
    // A governed session migrated mid-stream (inside a governor dwell
    // window) must keep the exact switch schedule and reports of an
    // unmigrated run: governor hysteresis and battery travel with it.
    const auto make_governed = [] {
        qs::session_config cfg;
        cfg.patient_id = "governed-0";
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
    };
    const auto rec = qp::record_for(
        qp::make_patient(qp::cohort::sinus_arrhythmia, 5), 1200.0);

    // Unmigrated baseline (global id 0 -> same derived seed as below).
    qs::service_options sopt;
    sopt.threads = 1;
    qs::plan_cache solo_cache;
    qs::session_manager solo(sopt, &solo_cache);
    const auto solo_id = solo.add_session(make_governed());
    for (std::size_t b = 0; b < rec.beats(); ++b)
        ASSERT_TRUE(solo.ingest(solo_id, rec.beat_time_s[b], rec.rr_s[b]));
    solo.drain_all();
    ASSERT_GT(solo.at(solo_id).switch_log().size(), 0u);

    qs::router_options opt;
    opt.shards = 2;
    opt.shard.threads = 1;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    const auto id = router.add_session(make_governed());
    ASSERT_EQ(router.at(id).seed(), solo.at(solo_id).seed());

    // Run to just past a switch so the dwell counter is mid-flight, then
    // migrate with beats still buffered.
    const std::size_t split = rec.beats() / 3;
    for (std::size_t b = 0; b < split; ++b)
        ASSERT_TRUE(router.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    router.migrate_session(id, 1 - router.shard_of(id));
    for (std::size_t b = split; b < rec.beats(); ++b)
        ASSERT_TRUE(router.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    router.drain_all();

    const auto& migrated = router.at(id);
    const auto& baseline = solo.at(solo_id);
    expect_reports_identical(migrated.reports(), baseline.reports());
    ASSERT_EQ(migrated.switch_log().size(), baseline.switch_log().size());
    for (std::size_t i = 0; i < migrated.switch_log().size(); ++i) {
        EXPECT_EQ(migrated.switch_log()[i].window_index,
                  baseline.switch_log()[i].window_index);
        EXPECT_EQ(migrated.switch_log()[i].mode_index,
                  baseline.switch_log()[i].mode_index);
    }
}

TEST(MigrationTest, ReshapeGrowsTheFleetWithoutDisturbingSessions) {
    // K=1 -> 2 -> 4, mid-stream both times.  Every session the new map
    // places elsewhere moves (bit-identically); the rest stay put.
    const sharded_fixture fx(8);
    qs::router_options opt;
    opt.shards = 1;
    opt.shard.threads = 1;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));

    const auto ingest_range = [&](std::size_t den, std::size_t lo,
                                  std::size_t hi) {
        for (unsigned i = 0; i < fx.records.size(); ++i) {
            const auto& rec = fx.records[i];
            for (std::size_t b = rec.beats() * lo / den;
                 b < rec.beats() * hi / den; ++b)
                ASSERT_TRUE(
                    router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
        }
    };

    ingest_range(3, 0, 1);
    router.reshape(2);
    EXPECT_EQ(router.shard_count(), 2u);
    ingest_range(3, 1, 2);
    router.reshape(4);
    EXPECT_EQ(router.shard_count(), 4u);
    ingest_range(3, 2, 3);
    router.drain_all();

    // Placement now matches the 4-shard map, and ids survived.
    std::size_t populated = 0;
    for (unsigned i = 0; i < fx.records.size(); ++i)
        EXPECT_EQ(router.shard_of(i),
                  router.placement().shard_for(patient_name(i)));
    for (std::size_t k = 0; k < router.shard_count(); ++k)
        populated += router.shard(k).session_count() > 0 ? 1 : 0;
    EXPECT_GT(populated, 1u);

    std::uint64_t windows = 0;
    for (unsigned i = 0; i < fx.records.size(); ++i) {
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);
        windows += fx.serial[i].size();
    }
    EXPECT_EQ(router.fleet().windows, windows);
    // Each reshape migrates only what the map moved; merged telemetry
    // stays balanced.
    EXPECT_EQ(router.fleet().sessions_migrated_in,
              router.fleet().sessions_migrated_out);
}

TEST(MigrationTest, ConcurrentSnapshotsAndMigrationsDoNotRace) {
    // tsan coverage for the admission-mutex contract: migrations swing a
    // live route while per-shard pumpers drain, producers ingest other
    // sessions, and a snapshot thread merges fleet state.  Session 0's
    // producer is the migrating thread itself (the quiesced-producer
    // rule), so the run must still be bit-identical to serial.
    const sharded_fixture fx(6, 300.0);
    qs::router_options opt;
    opt.shards = 2;
    opt.shard.threads = 1;
    qs::plan_cache cache;
    qs::shard_router router(opt, &cache);
    for (unsigned i = 0; i < fx.records.size(); ++i)
        router.add_session(fx.session(i));

    std::atomic<bool> stop{false};
    std::vector<std::thread> pumpers;
    for (std::size_t k = 0; k < router.shard_count(); ++k)
        pumpers.emplace_back([&router, &stop, k] {
            while (!stop.load(std::memory_order_acquire)) {
                router.shard(k).pump();
                std::this_thread::yield();
            }
        });
    std::thread snapshotter([&router, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto snap = router.fleet();
            (void)snap.windows;
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> producers;
    for (unsigned i = 1; i < fx.records.size(); ++i)
        producers.emplace_back([&router, &fx, i] {
            const auto& rec = fx.records[i];
            for (std::size_t b = 0; b < rec.beats(); ++b)
                while (!router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                    std::this_thread::yield();
        });

    // Main thread: interleave session 0's beats with migrations.
    const auto& rec0 = fx.records[0];
    const std::size_t chunk = rec0.beats() / 32 + 1;
    std::size_t next = 0;
    std::size_t moves = 0;
    while (next < rec0.beats()) {
        const std::size_t end = std::min(next + chunk, rec0.beats());
        for (; next < end; ++next)
            while (!router.ingest(0, rec0.beat_time_s[next],
                                  rec0.rr_s[next]))
                std::this_thread::yield();
        router.migrate_session(0, moves++ % 2);
    }

    for (auto& t : producers) t.join();
    stop.store(true, std::memory_order_release);
    for (auto& t : pumpers) t.join();
    snapshotter.join();
    router.drain_all();

    for (unsigned i = 0; i < fx.records.size(); ++i)
        expect_reports_identical(router.at(i).reports(), fx.serial[i]);
    EXPECT_GT(router.fleet().sessions_migrated_out, 1u);
}
