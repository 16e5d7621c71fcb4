// qpsa::service tests: ingest ring, worker pool, shared plan cache,
// session lifecycle, fleet determinism vs serial analysis, and a
// multi-threaded 32-session smoke test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

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

qs::session_config patient_session(qp::cohort group, unsigned index,
                                   qcore::psa_config analysis) {
    qs::session_config cfg;
    cfg.patient_id = qp::make_patient(group, index).id;
    cfg.analysis = std::move(analysis);
    cfg.monitor = paper_monitor();
    cfg.ingest_capacity = 4096;
    return cfg;
}

/// Serial reference: the same record through a standalone monitor.
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
        EXPECT_EQ(got[i].t_start, want[i].t_start);
        EXPECT_EQ(got[i].t_end, want[i].t_end);
        EXPECT_EQ(got[i].beats, want[i].beats);
        EXPECT_EQ(got[i].diagnosis, want[i].diagnosis);
        // Bit-identical arithmetic: same engine algorithm, same windows,
        // same order -- no tolerance needed.
        EXPECT_EQ(got[i].bands.lf, want[i].bands.lf);
        EXPECT_EQ(got[i].bands.hf, want[i].bands.hf);
        EXPECT_EQ(got[i].bands.total, want[i].bands.total);
        EXPECT_EQ(got[i].ops, want[i].ops);
    }
}

using qpsa::test::degradation_ladder;

/// Session config running the ladder under a tiny battery: the fixed
/// duty-cycle overhead (~2.8e-4 J/window) walks the charge through the
/// q15 boundary (budget 2 %, fraction 0.8) around window 2 and the
/// pruned boundary (budget 7 %, fraction 0.3) around window 7.
qs::session_config governed_session(
    qp::cohort group, unsigned index,
    std::shared_ptr<const qcore::quality_controller> ladder) {
    auto cfg =
        patient_session(group, index, qcore::psa_config::conventional());
    cfg.quality.controller = std::move(ladder);
    cfg.quality.governed = true;
    cfg.quality.governor.reselect_every = 1;
    cfg.quality.governor.min_dwell = 2;
    cfg.quality.governor.switch_margin = 0.02;
    cfg.quality.governor.budget_full_pct = 0.0;
    cfg.quality.governor.budget_empty_pct = 10.0;
    cfg.battery.capacity_j = 2.6e-3;
    return cfg;
}

/// Serial replay of a governed session: the same beats through a
/// standalone monitor, applying the recorded mode switches after the
/// recorded window indices.  Must reproduce the fleet run bit for bit.
std::vector<qcore::window_report> replay_schedule(
    const qp::rr_record& rec, const qcore::psa_config& base,
    const qcore::quality_controller& ladder,
    std::span<const qs::mode_switch_event> log) {
    // A governed session starts in the full-charge mode (budget_full = 0).
    qcore::streaming_monitor mon(
        ladder.select(0.0).apply_to(base), paper_monitor());
    std::vector<qcore::window_report> out;
    std::size_t next = 0;
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
        while (auto rep = mon.poll()) {
            out.push_back(*rep);
            if (next < log.size() && out.size() == log[next].window_index) {
                mon.set_config(
                    ladder.profiles()[log[next].mode_index].apply_to(base));
                ++next;
            }
        }
    }
    return out;
}

}  // namespace

// ---------------------------------------------------------------- ring

TEST(BeatRingTest, FifoOrderAndOverflow) {
    qs::beat_ring ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.push({static_cast<real>(i), 0.8}));
    EXPECT_FALSE(ring.push({99.0, 0.8}));  // full -> dropped
    EXPECT_EQ(ring.dropped(), 1u);

    qs::beat_sample s;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.pop(s));
        EXPECT_EQ(s.t, static_cast<real>(i));
    }
    EXPECT_FALSE(ring.pop(s));
    EXPECT_TRUE(ring.empty());
}

TEST(BeatRingTest, SpscThreaded) {
    qs::beat_ring ring(64);
    constexpr int n = 20000;
    std::thread producer([&] {
        for (int i = 0; i < n; ++i)
            while (!ring.push({static_cast<real>(i), 1.0})) std::this_thread::yield();
    });
    int expected = 0;
    qs::beat_sample s;
    while (expected < n) {
        if (ring.pop(s)) {
            ASSERT_EQ(s.t, static_cast<real>(expected));
            ++expected;
        }
    }
    producer.join();
    // dropped() counts rejected push attempts; the busy-retrying producer
    // may have generated some, but no accepted beat was lost or reordered.
}

// ----------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsAllTasksAndWaitsIdle) {
    qs::thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> done{0};
    std::atomic<unsigned> slots{0};  // bit i set by task(i)
    for (int pass = 0; pass < 25; ++pass)
        pool.submit_per_worker(pool.size(), [&](std::size_t i) {
            done.fetch_add(1);
            slots.fetch_or(1u << i);
        });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 100);
    EXPECT_EQ(slots.load(), 0xFu);  // every per-worker slot ran

    // A pass may use fewer workers than the pool has: slots 0 and 1 only.
    slots.store(0);
    pool.submit_per_worker(2, [&](std::size_t i) {
        done.fetch_add(1);
        slots.fetch_or(1u << i);
    });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 102);
    EXPECT_EQ(slots.load(), 0x3u);
}

// ---------------------------------------------------------- plan cache

TEST(PlanCacheTest, HitMissCountsAndEngineIdentity) {
    qs::plan_cache cache;
    const auto cfg = qcore::psa_config::conventional(512);

    const auto e1 = cache.engine_for(cfg);
    const auto e2 = cache.engine_for(cfg);
    EXPECT_EQ(e1.get(), e2.get());  // one shared instance
    auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);

    // A different configuration builds (and memoizes) a new engine.
    const auto prop = qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2));
    const auto e3 = cache.engine_for(prop);
    EXPECT_NE(e3.get(), e1.get());
    stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2u);

    // Systems wrap the cached engine rather than rebuilding it.
    const auto sys = cache.system_for(prop);
    EXPECT_EQ(sys->shared_engine().get(), e3.get());
    EXPECT_GT(cache.stats().hit_rate(), 0.4);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, DistinctPruneConfigsGetDistinctKeys) {
    const auto a = qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set1));
    const auto b = qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set3));
    EXPECT_NE(a.engine_key(), b.engine_key());
    EXPECT_EQ(a.engine_key(), a.engine_key());
    EXPECT_NE(a.engine_key(), qcore::psa_config::conventional(512).engine_key());
}

TEST(TwiddleCacheTest, TablesAreSharedAcrossEngines) {
    qf::clear_twiddle_cache();
    const qf::wavelet_fft fft1(qf::plan::exact(256, qw::basis::haar));
    const qf::wavelet_fft fft2(qf::plan::exact(256, qw::basis::haar));
    EXPECT_EQ(fft1.shared_tables().get(), fft2.shared_tables().get());
    const auto stats = qf::twiddle_cache_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 1u);

    // Different basis -> different table.
    const qf::wavelet_fft fft3(qf::plan::exact(256, qw::basis::db2));
    EXPECT_NE(fft3.shared_tables().get(), fft1.shared_tables().get());
}

// -------------------------------------------------------------- session

TEST(SessionTest, LifecycleMatchesSerialMonitor) {
    const auto patient = qp::make_patient(qp::cohort::sinus_arrhythmia, 1);
    const auto rec = qp::record_for(patient, 600.0);

    qs::service_options opt;
    opt.threads = 2;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);
    const auto id = mgr.add_session(patient_session(
        qp::cohort::sinus_arrhythmia, 1, qcore::psa_config::conventional()));
    ASSERT_EQ(mgr.session_count(), 1u);

    // Feed in chunks with pumps interleaved: window closing is per-beat,
    // so chunking must not change the results.
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[i], rec.rr_s[i]));
        if (i % 100 == 0) mgr.pump();
    }
    mgr.drain_all();

    const auto& sess = mgr.at(id);
    EXPECT_EQ(sess.beats_ingested(), rec.beats());
    EXPECT_EQ(sess.beats_dropped(), 0u);
    EXPECT_GT(sess.windows_completed(), 5u);

    const auto want = serial_reports(rec, qcore::psa_config::conventional());
    expect_reports_identical(sess.reports(), want);

    const auto fleet = mgr.fleet();
    EXPECT_EQ(fleet.windows, sess.windows_completed());
    EXPECT_GT(fleet.energy.energy_nominal_j, 0.0);
    EXPECT_GT(fleet.energy.ops.arithmetic(), 0u);
}

TEST(SessionTest, MalformedBeatsAreRejectedNotFatal) {
    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);
    const auto id = mgr.add_session(patient_session(
        qp::cohort::healthy, 0, qcore::psa_config::conventional()));
    EXPECT_TRUE(mgr.ingest(id, 1.0, 0.9));
    EXPECT_TRUE(mgr.ingest(id, 0.5, 0.9));   // non-monotonic -> rejected
    EXPECT_TRUE(mgr.ingest(id, 2.0, -1.0));  // negative RR -> rejected
    EXPECT_TRUE(mgr.ingest(id, 2.0, 0.9));
    mgr.drain_all();
    EXPECT_EQ(mgr.at(id).beats_rejected(), 2u);
    EXPECT_EQ(mgr.at(id).beats_ingested(), 2u);

    // Non-finite beats are rejected the same way.  A NaN first beat must
    // not anchor the window grid (that would silence the session for
    // good), and an +inf or NaN RR must not reach a window.  The dirty
    // session then produces exactly the clean session's windows.
    const real nan = std::numeric_limits<real>::quiet_NaN();
    const real inf = std::numeric_limits<real>::infinity();
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::sinus_arrhythmia, 1), 300.0);
    const auto cfg = [] {
        return patient_session(qp::cohort::sinus_arrhythmia, 1,
                               qcore::psa_config::conventional());
    };
    const auto clean = mgr.add_session(cfg());
    const auto dirty = mgr.add_session(cfg());
    EXPECT_TRUE(mgr.ingest(dirty, nan, 0.9));
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        const real t = rec.beat_time_s[i];
        EXPECT_TRUE(mgr.ingest(clean, t, rec.rr_s[i]));
        EXPECT_TRUE(mgr.ingest(dirty, t, rec.rr_s[i]));
        if (i == 50) {
            EXPECT_TRUE(mgr.ingest(dirty, t + 1e-3, inf));
        }
        if (i == 100) {
            EXPECT_TRUE(mgr.ingest(dirty, t + 1e-3, nan));
        }
    }
    mgr.drain_all();
    EXPECT_EQ(mgr.at(clean).beats_rejected(), 0u);
    EXPECT_EQ(mgr.at(dirty).beats_rejected(), 3u);
    EXPECT_EQ(mgr.at(dirty).beats_ingested(), rec.beats());
    EXPECT_EQ(mgr.at(clean).windows_completed(), 3u);
    EXPECT_EQ(mgr.at(dirty).windows_completed(), 3u);
    expect_reports_identical(mgr.at(dirty).reports(), mgr.at(clean).reports());
}

TEST(SessionTest, QdesControllerSelectsModeWithinBudget) {
    // Hand-built controller: exact mode plus one pruned mode with 5 %
    // expected distortion and 40 % savings.
    qcore::mode_profile exact;
    exact.name = "exact";
    exact.spec = qcore::wavelet_spec{qf::plan::exact(512, qw::basis::haar)};
    qcore::mode_profile pruned;
    pruned.name = "band+set2";
    pruned.spec = qcore::wavelet_spec{
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2)};
    pruned.expected_error_pct = 5.0;
    pruned.expected_savings = 0.4;
    pruned.expected_savings_vfs = 0.7;  // select() orders by VFS savings
    auto controller = std::make_shared<const qcore::quality_controller>(
        std::vector<qcore::mode_profile>{exact, pruned});

    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);

    auto cfg = patient_session(qp::cohort::healthy, 2,
                               qcore::psa_config::conventional());
    cfg.quality.controller = controller;
    cfg.quality.qdes_error_pct = 10.0;  // generous budget -> pruned mode
    const auto id = mgr.add_session(std::move(cfg));
    const auto active_plan = [&] {
        return std::get<qcore::wavelet_spec>(mgr.at(id).config().spec).plan;
    };
    EXPECT_EQ(mgr.at(id).config().kind(), qcore::engine_class::wavelet);
    EXPECT_EQ(active_plan().prune.twiddle_fraction, 0.40);

    // Tightening the budget to below the pruned mode's distortion must
    // fall back to the exact mode, via the shared cache.
    mgr.at(id).set_quality_budget(1.0);
    EXPECT_EQ(active_plan().prune.twiddle_fraction, 0.0);

    // Budget <= 0 disables QDES: back to the originally configured mode.
    mgr.at(id).set_quality_budget(10.0);
    EXPECT_EQ(mgr.at(id).config().kind(), qcore::engine_class::wavelet);
    mgr.at(id).set_quality_budget(0.0);
    EXPECT_EQ(mgr.at(id).config().kind(), qcore::engine_class::conventional);
}

TEST(SessionTest, AdmissionConcurrentWithIngestAndPump) {
    qs::service_options opt;
    opt.threads = 2;
    opt.max_sessions = 64;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);

    // One thread admits sessions and feeds each a few beats while the
    // main thread pumps continuously -- admission must be safe against
    // the concurrent lock-free readers.
    std::atomic<bool> done{false};
    std::thread admitter([&] {
        for (unsigned i = 0; i < 48; ++i) {
            const auto id = mgr.add_session(patient_session(
                qp::cohort::healthy, i % 16, qcore::psa_config::conventional()));
            for (unsigned b = 0; b < 8; ++b)
                mgr.ingest(id, 1.0 + 0.8 * b, 0.8);
        }
        done.store(true);
    });
    while (!done.load()) mgr.pump();
    admitter.join();
    mgr.drain_all();

    EXPECT_EQ(mgr.session_count(), 48u);
    std::uint64_t beats = 0;
    for (unsigned i = 0; i < 48; ++i) beats += mgr.at(i).beats_ingested();
    EXPECT_EQ(beats, 48u * 8u);
}

// ------------------------------------------------- fleet determinism

TEST(FleetTest, EightMixedSessionsBitIdenticalToSerial) {
    const real seconds = 480.0;
    std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::proposed(
            qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2)),
        qcore::psa_config::proposed(qf::plan::band_dropped(512, qw::basis::haar)),
    };

    qs::service_options opt;
    opt.threads = 4;
    opt.scheduler.batch_size = 2;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);

    std::vector<qp::rr_record> records;
    for (unsigned i = 0; i < 8; ++i) {
        const auto group =
            i % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
        records.push_back(qp::record_for(qp::make_patient(group, i), seconds));
        mgr.add_session(
            patient_session(group, i, configs[i % configs.size()]));
    }

    // Interleave ingest round-robin across sessions, pumping as we go --
    // worst case for scheduling-order dependence.
    std::size_t max_beats = 0;
    for (const auto& r : records) max_beats = std::max(max_beats, r.beats());
    for (std::size_t b = 0; b < max_beats; ++b) {
        for (unsigned i = 0; i < 8; ++i) {
            if (b < records[i].beats()) {
                ASSERT_TRUE(
                    mgr.ingest(i, records[i].beat_time_s[b], records[i].rr_s[b]));
            }
        }
        if (b % 50 == 0) mgr.pump();
    }
    mgr.drain_all();

    std::uint64_t total_windows = 0;
    for (unsigned i = 0; i < 8; ++i) {
        const auto want = serial_reports(records[i], configs[i % configs.size()]);
        expect_reports_identical(mgr.at(i).reports(), want);
        total_windows += mgr.at(i).windows_completed();
    }
    EXPECT_EQ(mgr.fleet().windows, total_windows);

    // 8 sessions, 4 distinct configurations: the cache holds 4 engines
    // and every other session construction hit.
    const auto cs = mgr.cache_stats();
    EXPECT_EQ(cs.entries, 4u);
    EXPECT_EQ(cs.misses, 4u);
    EXPECT_GE(cs.hits, 4u);
}

TEST(FleetTest, MixedEngineKindsShareCacheAndMatchSerial) {
    // The acceptance scenario of the engine_spec redesign: one fleet
    // concurrently running five engine kinds -- conventional, wavelet,
    // Q15 and Q31 fixed point, and Burg AR -- over one plan cache, every
    // session bit-identical to its serial reference.
    const real seconds = 480.0;
    const std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31),
        qcore::psa_config::burg_ar(),
    };
    const qcore::engine_class classes[] = {
        qcore::engine_class::conventional, qcore::engine_class::wavelet,
        qcore::engine_class::fixed_q15,    qcore::engine_class::fixed_q31,
        qcore::engine_class::burg,
    };

    qs::service_options opt;
    opt.threads = 4;
    opt.scheduler.batch_size = 2;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);

    constexpr unsigned n_sessions = 10;
    std::vector<qp::rr_record> records;
    for (unsigned i = 0; i < n_sessions; ++i) {
        const auto group =
            i % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
        records.push_back(qp::record_for(qp::make_patient(group, i), seconds));
        mgr.add_session(
            patient_session(group, i, configs[i % configs.size()]));
    }

    std::size_t max_beats = 0;
    for (const auto& r : records) max_beats = std::max(max_beats, r.beats());
    for (std::size_t b = 0; b < max_beats; ++b) {
        for (unsigned i = 0; i < n_sessions; ++i) {
            if (b < records[i].beats()) {
                ASSERT_TRUE(
                    mgr.ingest(i, records[i].beat_time_s[b], records[i].rr_s[b]));
            }
        }
        if (b % 50 == 0) mgr.pump();
    }
    mgr.drain_all();

    // Every session -- double, fixed point and AR alike -- is
    // deterministic, so the fleet run must reproduce the serial monitor
    // bit for bit.
    std::uint64_t total_windows = 0;
    for (unsigned i = 0; i < n_sessions; ++i) {
        const auto want = serial_reports(records[i], configs[i % configs.size()]);
        expect_reports_identical(mgr.at(i).reports(), want);
        total_windows += mgr.at(i).windows_completed();
    }

    // Engine sharing: 5 distinct specs -> 5 engines, every second session
    // construction a cache hit.
    const auto cs = mgr.cache_stats();
    EXPECT_EQ(cs.entries, configs.size());
    EXPECT_EQ(cs.misses, configs.size());
    EXPECT_GE(cs.hits, n_sessions - configs.size());

    // Per-engine-kind roll-up: all five classes produced windows, and the
    // per-class tallies sum to the fleet totals.
    const auto fleet = mgr.fleet();
    EXPECT_EQ(fleet.windows, total_windows);
    std::uint64_t by_engine_windows = 0;
    real by_engine_energy = 0.0;
    for (const auto& slot : fleet.by_engine) {
        by_engine_windows += slot.windows;
        by_engine_energy += slot.energy_nominal_j;
    }
    EXPECT_EQ(by_engine_windows, fleet.windows);
    EXPECT_NEAR(by_engine_energy, fleet.energy.energy_nominal_j, 1e-12);
    for (const auto c : classes)
        EXPECT_GT(fleet.engine(c).windows, 0u)
            << qcore::engine_class_name(c);
    EXPECT_EQ(fleet.engine(qcore::engine_class::resampled).windows, 0u);
}

TEST(FleetTest, FixedPointSessionsTrackDoubleSessions) {
    // The Q15/Q31 parity check through the *service* path: one patient
    // record analyzed by a double session and both fixed-point sessions
    // in the same fleet; fixed band powers must stay within the
    // fixed_wfft_test-style tolerances of the double result.
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 3), 600.0);

    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);
    const std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31),
    };
    for (unsigned i = 0; i < configs.size(); ++i)
        mgr.add_session(patient_session(qp::cohort::healthy, 3, configs[i]));
    for (std::size_t b = 0; b < rec.beats(); ++b)
        for (unsigned i = 0; i < configs.size(); ++i)
            ASSERT_TRUE(mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
    mgr.drain_all();

    const auto dbl = mgr.at(0).reports();
    const real tols[] = {0.05, 1e-4};  // q15, q31
    for (unsigned i = 1; i <= 2; ++i) {
        const auto fixed = mgr.at(i).reports();
        ASSERT_EQ(fixed.size(), dbl.size());
        for (std::size_t w = 0; w < dbl.size(); ++w) {
            EXPECT_NEAR(fixed[w].bands.lf / dbl[w].bands.lf, 1.0, tols[i - 1])
                << "session " << i << " window " << w;
            EXPECT_NEAR(fixed[w].bands.hf / dbl[w].bands.hf, 1.0, tols[i - 1])
                << "session " << i << " window " << w;
            EXPECT_EQ(fixed[w].diagnosis, dbl[w].diagnosis);
        }
        // And the fleet path reproduces the standalone monitor exactly.
        expect_reports_identical(fixed, serial_reports(rec, configs[i]));
    }
}

// ------------------------------------------------- snapshot merging

TEST(FleetStatsTest, SnapshotMergeIsLossless) {
    // Two disjoint fleets (as two shards would be), merged via
    // fleet_snapshot::operator+= -- every column must equal the sum.
    auto run_shard = [](unsigned patient, qcore::psa_config cfg) {
        qs::plan_cache cache;
        qs::session_manager mgr({}, &cache);
        const auto rec =
            qp::record_for(qp::make_patient(qp::cohort::healthy, patient), 480.0);
        const auto id = mgr.add_session(
            patient_session(qp::cohort::healthy, patient, std::move(cfg)));
        for (std::size_t b = 0; b < rec.beats(); ++b)
            mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]);
        mgr.drain_all();
        return mgr.fleet();
    };

    const auto a = run_shard(0, qcore::psa_config::conventional());
    const auto b = run_shard(
        1, qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15));
    ASSERT_GT(a.windows, 0u);
    ASSERT_GT(b.windows, 0u);

    qs::fleet_snapshot merged = a;
    merged += b;
    EXPECT_EQ(merged.windows, a.windows + b.windows);
    EXPECT_EQ(merged.beats, a.beats + b.beats);
    EXPECT_EQ(merged.arrhythmia_windows,
              a.arrhythmia_windows + b.arrhythmia_windows);
    EXPECT_EQ(merged.energy.windows, a.energy.windows + b.energy.windows);
    EXPECT_EQ(merged.energy.ops.adds, a.energy.ops.adds + b.energy.ops.adds);
    EXPECT_DOUBLE_EQ(merged.energy.energy_nominal_j,
                     a.energy.energy_nominal_j + b.energy.energy_nominal_j);
    EXPECT_DOUBLE_EQ(merged.energy.energy_vfs_j,
                     a.energy.energy_vfs_j + b.energy.energy_vfs_j);
    EXPECT_DOUBLE_EQ(merged.lf_sum, a.lf_sum + b.lf_sum);
    EXPECT_DOUBLE_EQ(merged.hf_sum, a.hf_sum + b.hf_sum);
    EXPECT_DOUBLE_EQ(merged.ratio_sum, a.ratio_sum + b.ratio_sum);
    EXPECT_EQ(merged.beats_dropped, a.beats_dropped + b.beats_dropped);
    EXPECT_EQ(merged.beats_rejected, a.beats_rejected + b.beats_rejected);
    EXPECT_EQ(merged.drop_alarms.size(),
              a.drop_alarms.size() + b.drop_alarms.size());

    // The per-engine split survives the merge: shard a ran conventional,
    // shard b ran fixed-q15, and the merged view holds both.
    EXPECT_EQ(merged.engine(qcore::engine_class::conventional).windows,
              a.windows);
    EXPECT_EQ(merged.engine(qcore::engine_class::fixed_q15).windows, b.windows);
    for (std::size_t i = 0; i < merged.by_engine.size(); ++i)
        EXPECT_EQ(merged.by_engine[i].windows,
                  a.by_engine[i].windows + b.by_engine[i].windows);
}

TEST(FleetStatsTest, IngestDropsSurfaceInSnapshot) {
    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);
    auto cfg = patient_session(qp::cohort::healthy, 0,
                               qcore::psa_config::conventional());
    cfg.ingest_capacity = 4;  // tiny ring -> guaranteed overflow
    const auto id = mgr.add_session(std::move(cfg));
    const auto quiet = mgr.add_session(patient_session(
        qp::cohort::healthy, 1, qcore::psa_config::conventional()));

    // Overflow the ring without pumping, then feed malformed beats.
    for (int i = 0; i < 10; ++i)
        mgr.ingest(id, 1.0 + 0.8 * i, 0.8);
    mgr.drain_all();
    mgr.ingest(id, 100.0, 0.8);
    mgr.ingest(id, 50.0, 0.8);   // non-monotonic -> rejected
    mgr.ingest(id, 101.0, -1.0); // negative RR -> rejected
    mgr.drain_all();

    const auto fleet = mgr.fleet();
    EXPECT_EQ(fleet.beats_dropped, 6u);   // 10 pushed into a 4-slot ring
    EXPECT_EQ(fleet.beats_rejected, 2u);
    ASSERT_EQ(fleet.drop_alarms.size(), 1u);
    EXPECT_EQ(fleet.drop_alarms[0].session_id, id);
    EXPECT_EQ(fleet.drop_alarms[0].dropped, 6u);
    EXPECT_EQ(fleet.drop_alarms[0].rejected, 2u);
    EXPECT_EQ(mgr.at(quiet).beats_dropped(), 0u);
}

TEST(FleetStatsTest, SnapshotMergePreservesQualityColumns) {
    qs::fleet_snapshot a;
    a.mode_switches = 3;
    a.battery_fraction_min = 0.7;
    a.beats_overwritten = 2;
    a.quality.push_back({1, 3, qcore::engine_class::fixed_q15, 0.7});

    qs::fleet_snapshot b;
    b.mode_switches = 5;
    b.battery_fraction_min = 0.4;
    b.quality.push_back({2, 5, qcore::engine_class::wavelet, 0.4});
    b.quality.push_back({3, 0, qcore::engine_class::conventional, 0.9});

    qs::fleet_snapshot merged = a;
    merged += b;
    EXPECT_EQ(merged.mode_switches, 8u);
    EXPECT_DOUBLE_EQ(merged.battery_fraction_min, 0.4);  // min, not sum
    EXPECT_EQ(merged.beats_overwritten, 2u);
    ASSERT_EQ(merged.quality.size(), 3u);
    EXPECT_EQ(merged.quality[0].session_id, 1u);
    EXPECT_EQ(merged.quality[1].current_mode, qcore::engine_class::wavelet);
    EXPECT_DOUBLE_EQ(merged.quality[2].battery_fraction, 0.9);
}

// ------------------------------------------------- adaptive QDES fleet

TEST(GovernedFleetTest, SwitchesKindsAndReplaysSerially) {
    // Four governed sessions drain under a depleting battery; each one's
    // recorded mode schedule, replayed serially beat by beat, must
    // reproduce the fleet run bit for bit -- the determinism contract of
    // the closed QDES loop.
    const auto ladder = degradation_ladder();
    const real seconds = 600.0;

    qs::service_options opt;
    opt.threads = 2;
    opt.scheduler.batch_size = 2;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);

    std::vector<qp::rr_record> records;
    for (unsigned i = 0; i < 4; ++i) {
        const auto group =
            i % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
        records.push_back(qp::record_for(qp::make_patient(group, i), seconds));
        mgr.add_session(governed_session(group, i, ladder));
    }

    // Interleaved ingest with frequent pumps: worst case for any hidden
    // dependence of the governed schedule on pump cadence.
    std::size_t max_beats = 0;
    for (const auto& r : records) max_beats = std::max(max_beats, r.beats());
    for (std::size_t b = 0; b < max_beats; ++b) {
        for (unsigned i = 0; i < 4; ++i) {
            if (b < records[i].beats()) {
                ASSERT_TRUE(
                    mgr.ingest(i, records[i].beat_time_s[b], records[i].rr_s[b]));
            }
        }
        if (b % 37 == 0) mgr.pump();
    }
    mgr.drain_all();

    std::uint64_t total_switches = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const auto& sess = mgr.at(i);
        // Every session walked the full ladder: double -> Q15 -> pruned.
        const auto log = sess.switch_log();
        ASSERT_EQ(log.size(), 2u) << "session " << i;
        EXPECT_EQ(log[0].mode_index, 1u);
        EXPECT_EQ(log[1].mode_index, 2u);
        EXPECT_GT(log[1].window_index, log[0].window_index);
        EXPECT_EQ(sess.mode_switches(), 2u);
        EXPECT_EQ(sess.current_mode(), qcore::engine_class::wavelet);
        EXPECT_LT(sess.battery_fraction(), 0.3);
        total_switches += sess.mode_switches();

        // Bit-identity against the serial replay of the same schedule.
        const auto want = replay_schedule(
            records[i], qcore::psa_config::conventional(), *ladder, log);
        expect_reports_identical(sess.reports(), want);
    }

    const auto fleet = mgr.fleet();
    EXPECT_EQ(fleet.mode_switches, total_switches);
    EXPECT_LT(fleet.battery_fraction_min, 0.3);
    ASSERT_EQ(fleet.quality.size(), 4u);
    for (const auto& q : fleet.quality) {
        EXPECT_EQ(q.mode_switches, 2u);
        EXPECT_EQ(q.current_mode, qcore::engine_class::wavelet);
    }
    // All three rungs produced windows, through one shared plan cache.
    EXPECT_GT(fleet.engine(qcore::engine_class::conventional).windows, 0u);
    EXPECT_GT(fleet.engine(qcore::engine_class::fixed_q15).windows, 0u);
    EXPECT_GT(fleet.engine(qcore::engine_class::wavelet).windows, 0u);
    EXPECT_EQ(mgr.cache_stats().entries, 3u);
}

TEST(GovernedFleetTest, FiveTwelvePatientFleetDegradesDisabledIsIdentical) {
    // The acceptance scenario: a 512-patient governed fleet degrades
    // double -> Q15 -> pruned as simulated battery charge falls; the same
    // fleet with the governor disabled performs zero switches and stays
    // bit-identical to serial monitor runs.
    constexpr unsigned n_sessions = 512;
    constexpr unsigned n_records = 64;
    const real seconds = 600.0;
    const auto ladder = degradation_ladder();

    std::vector<qp::rr_record> records;
    const auto group_of = [](unsigned r) {
        return r % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
    };
    for (unsigned r = 0; r < n_records; ++r)
        records.push_back(
            qp::record_for(qp::make_patient(group_of(r), r), seconds));

    const auto stream_fleet = [&](qs::session_manager& mgr) {
        constexpr std::size_t chunk = 256;
        bool remaining = true;
        for (std::size_t step = 0; remaining; ++step) {
            remaining = false;
            for (unsigned i = 0; i < n_sessions; ++i) {
                const auto& rec = records[i % n_records];
                const std::size_t begin =
                    std::min(step * chunk, rec.beats());
                const std::size_t end =
                    std::min(begin + chunk, rec.beats());
                for (std::size_t b = begin; b < end; ++b)
                    ASSERT_TRUE(
                        mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
                if (end < rec.beats()) remaining = true;
            }
            mgr.pump();
        }
        mgr.drain_all();
    };

    qs::service_options opt;
    opt.threads = 4;
    opt.scheduler.batch_size = 16;

    // --- governed run ----------------------------------------------------
    qs::plan_cache governed_cache;
    qs::session_manager governed(opt, &governed_cache);
    for (unsigned i = 0; i < n_sessions; ++i)
        governed.add_session(
            governed_session(group_of(i % n_records), i % n_records, ladder));
    stream_fleet(governed);

    const auto gsnap = governed.fleet();
    EXPECT_EQ(gsnap.mode_switches, 2u * n_sessions);
    EXPECT_LT(gsnap.battery_fraction_min, 0.3);
    ASSERT_EQ(gsnap.quality.size(), n_sessions);
    for (unsigned i = 0; i < n_sessions; ++i) {
        const auto log = governed.at(i).switch_log();
        ASSERT_EQ(log.size(), 2u) << "session " << i;
        EXPECT_EQ(log[0].mode_index, 1u);  // -> fixed-q15
        EXPECT_EQ(log[1].mode_index, 2u);  // -> pruned wavelet
        EXPECT_EQ(governed.at(i).current_mode(),
                  qcore::engine_class::wavelet);
    }
    // The fleet produced windows on every rung of the ladder.
    EXPECT_GT(gsnap.engine(qcore::engine_class::conventional).windows, 0u);
    EXPECT_GT(gsnap.engine(qcore::engine_class::fixed_q15).windows, 0u);
    EXPECT_GT(gsnap.engine(qcore::engine_class::wavelet).windows, 0u);
    EXPECT_EQ(governed_cache.stats().entries, 3u);

    // --- governor disabled: zero switches, bit-identical to serial ------
    qs::plan_cache plain_cache;
    qs::session_manager plain(opt, &plain_cache);
    for (unsigned i = 0; i < n_sessions; ++i)
        plain.add_session(patient_session(group_of(i % n_records),
                                          i % n_records,
                                          qcore::psa_config::conventional()));
    stream_fleet(plain);

    const auto psnap = plain.fleet();
    EXPECT_EQ(psnap.mode_switches, 0u);
    EXPECT_TRUE(psnap.quality.empty());
    EXPECT_EQ(psnap.engine(qcore::engine_class::fixed_q15).windows, 0u);

    std::vector<std::vector<qcore::window_report>> serial(n_records);
    for (unsigned r = 0; r < n_records; ++r)
        serial[r] =
            serial_reports(records[r], qcore::psa_config::conventional());
    for (unsigned i = 0; i < n_sessions; ++i) {
        ASSERT_EQ(plain.at(i).mode_switches(), 0u);
        expect_reports_identical(plain.at(i).reports(),
                                 serial[i % n_records]);
    }
}

// -------------------------------------------- scheduler determinism

TEST(SchedulerDeterminismTest, StealingFleetsBitIdenticalAtAnyWorkerCount) {
    // The work-stealing drain contract: for ANY worker count and ANY
    // steal interleaving, per-session reports, governed switch logs and
    // the fleet snapshot (windows_stolen normalized -- the one
    // schedule-dependent column, by design) are bit-identical to the
    // 1-worker serial drain.  batch_size = 2 cuts two-session drain
    // units: small enough that every pass deals many units (steal
    // pressure at every width), large enough that same-plan lane groups
    // still form inside a unit.  The engine mix is deliberately
    // heterogeneous --
    // mesh-FFT single-level trees (lane-batched) and recursive trees (one
    // window per round), fixed point, both whole-window kinds, plus
    // governed sessions that switch engines mid-run.
    constexpr unsigned n_sessions = 24;
    constexpr unsigned n_records = 8;
    const real seconds = 480.0;
    const auto ladder = degradation_ladder();

    const std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::proposed(
            qf::plan::exact(512, qw::basis::haar, qf::tree_mode::recursive)),
        qcore::psa_config::proposed(
            qf::plan::static_pruned(512, qw::basis::haar,
                                    qf::twiddle_set::set2,
                                    qf::tree_mode::recursive)),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::resampled(),
        qcore::psa_config::welch(),
    };
    const auto group_of = [](unsigned r) {
        return r % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
    };
    std::vector<qp::rr_record> records;
    for (unsigned r = 0; r < n_records; ++r)
        records.push_back(
            qp::record_for(qp::make_patient(group_of(r), r), seconds));

    const auto run_fleet = [&](std::size_t workers) {
        qs::service_options opt;
        opt.threads = workers;
        opt.scheduler.batch_size = 2;  // many small units: steals happen
        auto cache = std::make_unique<qs::plan_cache>();
        auto mgr = std::make_unique<qs::session_manager>(opt, cache.get());
        for (unsigned i = 0; i < n_sessions; ++i) {
            if (i % 8 == 7)
                mgr->add_session(governed_session(group_of(i % n_records),
                                                  i % n_records, ladder));
            else
                mgr->add_session(
                    patient_session(group_of(i % n_records), i % n_records,
                                    configs[i % configs.size()]));
        }
        constexpr std::size_t chunk = 64;
        bool remaining = true;
        for (std::size_t step = 0; remaining; ++step) {
            remaining = false;
            for (unsigned i = 0; i < n_sessions; ++i) {
                const auto& rec = records[i % n_records];
                const std::size_t begin = std::min(step * chunk, rec.beats());
                const std::size_t end =
                    std::min(begin + chunk, rec.beats());
                for (std::size_t b = begin; b < end; ++b)
                    EXPECT_TRUE(
                        mgr->ingest(i, rec.beat_time_s[b], rec.rr_s[b]));
                if (end < rec.beats()) remaining = true;
            }
            mgr->pump();
        }
        mgr->drain_all();
        return std::pair{std::move(mgr), std::move(cache)};
    };

    const auto [serial, serial_cache] = run_fleet(1);
    qs::fleet_snapshot serial_snap = serial->fleet();
    EXPECT_EQ(serial_snap.windows_stolen, 0u);  // one worker cannot steal
    // Lane groups only form when some engine of the fleet has two or more
    // lanes under the active dispatch (not so for every kind under
    // QPSA_FORCE_ISA=scalar).
    const bool fleet_has_lanes =
        std::any_of(configs.begin(), configs.end(), [](const auto& c) {
            const qcore::psa_system sys(c);
            return sys.engine().batch_width() >= 2 &&
                   !sys.engine().whole_window();
        });
    if (fleet_has_lanes) {
        EXPECT_GT(serial_snap.lane_slots_filled, 0u);
    }

    std::uint64_t stolen_total = 0;
    for (const std::size_t workers : {2u, 4u, 8u}) {
        const auto [mgr, cache] = run_fleet(workers);
        for (unsigned i = 0; i < n_sessions; ++i) {
            expect_reports_identical(mgr->at(i).reports(),
                                     serial->at(i).reports());
            ASSERT_EQ(mgr->at(i).switch_log().size(),
                      serial->at(i).switch_log().size())
                << "workers " << workers << " session " << i;
            for (std::size_t k = 0; k < mgr->at(i).switch_log().size(); ++k)
                EXPECT_EQ(mgr->at(i).switch_log()[k],
                          serial->at(i).switch_log()[k]);
        }
        qs::fleet_snapshot snap = mgr->fleet();
        stolen_total += snap.windows_stolen;
        snap.windows_stolen = 0;
        qs::fleet_snapshot want = serial_snap;
        want.windows_stolen = 0;
        // Everything else -- double sums included -- must match bit for
        // bit: the unit partition ignores the worker count and partials
        // merge in unit index order, never completion order.
        EXPECT_EQ(snap, want) << "workers " << workers;
    }
    // With two-session units and hundreds of passes across three
    // multi-worker runs, at least one idle worker wins a steal in
    // practice on any machine; the identity checks above are the real
    // assertions, this one documents that they ran *under* stealing.
    EXPECT_GT(stolen_total, 0u);
}

// --------------------------------------------------- concurrent smoke

TEST(FleetTest, ThirtyTwoSessionsConcurrentProducers) {
    constexpr unsigned n_sessions = 32;
    const real seconds = 300.0;

    qs::service_options opt;
    opt.threads = 4;
    opt.vfs_deadline_s = 60.0;
    qs::plan_cache cache;
    qs::session_manager mgr(opt, &cache);

    std::vector<qp::rr_record> records;
    for (unsigned i = 0; i < n_sessions; ++i) {
        const auto group =
            i % 2 == 0 ? qp::cohort::sinus_arrhythmia : qp::cohort::healthy;
        records.push_back(
            qp::record_for(qp::make_patient(group, i % 16), seconds));
        mgr.add_session(patient_session(
            group, i % 16,
            i % 2 == 0 ? qcore::psa_config::conventional()
                       : qcore::psa_config::proposed(
                             qf::plan::static_pruned(512, qw::basis::haar,
                                                     qf::twiddle_set::set1))));
    }

    // Four producer threads feed 8 sessions each while the main thread
    // pumps the scheduler concurrently.
    std::atomic<bool> done{false};
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
            for (unsigned i = p * 8; i < (p + 1) * 8; ++i) {
                const auto& rec = records[i];
                for (std::size_t b = 0; b < rec.beats(); ++b)
                    while (!mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                        std::this_thread::yield();
            }
        });
    }
    std::thread pumper([&] {
        while (!done.load()) mgr.pump();
    });
    for (auto& t : producers) t.join();
    done.store(true);
    pumper.join();
    mgr.drain_all();

    std::uint64_t windows = 0;
    for (unsigned i = 0; i < n_sessions; ++i) {
        EXPECT_EQ(mgr.at(i).beats_ingested(), records[i].beats()) << i;
        EXPECT_GT(mgr.at(i).windows_completed(), 0u) << i;
        windows += mgr.at(i).windows_completed();
    }
    const auto fleet = mgr.fleet();
    EXPECT_EQ(fleet.windows, windows);
    EXPECT_GT(fleet.energy.energy_nominal_j, 0.0);
    EXPECT_GE(fleet.energy.vfs_savings(), 0.0);
    EXPECT_LE(fleet.energy.energy_vfs_j, fleet.energy.energy_nominal_j);
    EXPECT_GT(fleet.arrhythmia_fraction(), 0.0);

    // Two distinct configurations across 32 sessions.
    EXPECT_EQ(mgr.cache_stats().entries, 2u);
    EXPECT_GT(mgr.cache_stats().hit_rate(), 0.9);
}

// ------------------------------------------------- trickle cadence

namespace {

/// A patient's delivered beat stream with malformed beats mixed in: every
/// 37th beat is followed by a non-monotonic one, every 53rd by one with a
/// non-positive RR just after it (sometimes at or past a window end, so a
/// due session may close nothing).
std::vector<qs::beat_sample> hostile_stream(const qp::rr_record& rec) {
    std::vector<qs::beat_sample> out;
    for (std::size_t b = 0; b < rec.beats(); ++b) {
        const real t = rec.beat_time_s[b];
        out.push_back({t, rec.rr_s[b]});
        if (b % 37 == 36) out.push_back({t - 0.25, 0.8});
        if (b % 53 == 52) out.push_back({t + 0.01, b % 2 == 0 ? 0.0 : -0.5});
    }
    return out;
}

/// Serial reference over a delivered stream: a standalone monitor that
/// drops malformed beats the way a session does.
std::vector<qcore::window_report> serial_reports(
    std::span<const qs::beat_sample> beats, qcore::psa_config cfg) {
    qcore::streaming_monitor mon(std::move(cfg), paper_monitor());
    std::vector<qcore::window_report> out;
    for (const qs::beat_sample& b : beats) {
        try {
            mon.push_beat(b.t, b.rr);
        } catch (const qpsa::contract_error&) {
        }
        while (auto rep = mon.poll()) out.push_back(*rep);
    }
    return out;
}

}  // namespace

TEST(TrickleCadenceTest, OneToThreeBeatsPerPumpMatchSerialAtAnyWorkerCount) {
    // The live cadence: every pump delivers only 1-3 beats per session,
    // so nearly every pass leaves most sessions' beats waiting in their
    // rings and drains the few whose newest beat reached a window end.
    // Whatever the cadence, reports must equal a serial monitor over the
    // delivered stream, every delivered beat must be ingested or rejected
    // exactly once, and the fleet snapshot must not depend on the worker
    // count.
    constexpr unsigned n_sessions = 8;
    constexpr std::size_t late_step = 150;  // the 9th session joins here
    const std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
    };
    std::vector<std::vector<qs::beat_sample>> streams;
    for (unsigned i = 0; i <= n_sessions; ++i)
        streams.push_back(hostile_stream(qp::record_for(
            qp::make_patient(i % 2 == 0 ? qp::cohort::sinus_arrhythmia
                                        : qp::cohort::healthy,
                             i),
            420.0)));
    const auto config_of = [&](unsigned i) { return configs[i % 2]; };

    const auto run_fleet = [&](std::size_t workers) {
        qs::service_options opt;
        opt.threads = workers;
        opt.scheduler.batch_size = 2;
        auto cache = std::make_unique<qs::plan_cache>();
        auto mgr = std::make_unique<qs::session_manager>(opt, cache.get());
        for (unsigned i = 0; i < n_sessions; ++i)
            mgr->add_session(
                patient_session(qp::cohort::healthy, i, config_of(i)));
        std::vector<std::size_t> next(n_sessions + 1, 0);
        std::size_t windows = 0;
        bool remaining = true;
        for (std::size_t step = 0; remaining; ++step) {
            if (step == late_step)
                mgr->add_session(patient_session(qp::cohort::healthy,
                                                 n_sessions,
                                                 config_of(n_sessions)));
            remaining = false;
            for (unsigned i = 0; i < mgr->session_count(); ++i) {
                const std::size_t k = 1 + (step * 7 + i * 3) % 3;
                for (std::size_t j = 0; j < k && next[i] < streams[i].size();
                     ++j, ++next[i])
                    EXPECT_TRUE(mgr->ingest(i, streams[i][next[i]].t,
                                            streams[i][next[i]].rr));
                if (next[i] < streams[i].size()) remaining = true;
            }
            windows += mgr->pump();
        }
        windows += mgr->drain_all();
        EXPECT_EQ(windows, mgr->fleet().windows);
        return std::pair{std::move(mgr), std::move(cache)};
    };

    const auto [serial, serial_cache] = run_fleet(1);
    ASSERT_EQ(serial->session_count(), n_sessions + 1);
    std::uint64_t rejected = 0;
    for (unsigned i = 0; i <= n_sessions; ++i) {
        const qs::session& s = serial->at(i);
        EXPECT_EQ(s.beats_ingested() + s.beats_rejected(), streams[i].size())
            << "session " << i;
        EXPECT_FALSE(s.has_pending());
        rejected += s.beats_rejected();
        const auto want = serial_reports(streams[i], config_of(i));
        EXPECT_GT(want.size(), 3u);
        expect_reports_identical(s.reports(), want);
    }
    EXPECT_GT(rejected, 0u);

    qs::fleet_snapshot want = serial->fleet();
    want.windows_stolen = 0;
    for (const std::size_t workers : {2u, 4u}) {
        const auto [mgr, cache] = run_fleet(workers);
        for (unsigned i = 0; i <= n_sessions; ++i)
            expect_reports_identical(mgr->at(i).reports(),
                                     serial->at(i).reports());
        qs::fleet_snapshot snap = mgr->fleet();
        snap.windows_stolen = 0;
        EXPECT_EQ(snap, want) << "workers " << workers;
    }
}

TEST(TrickleCadenceTest, DrainAllTerminatesOnSubWindowRingAndUnstartedBacklog) {
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 3), 300.0);
    qs::plan_cache cache;
    qs::service_options opt;
    opt.threads = 2;
    qs::session_manager mgr(opt, &cache);

    // A ring holding only beats before the first window end: the monitor
    // has not started, so the pass drains them, closes nothing and leaves
    // nothing pending.
    const auto sub = mgr.add_session(patient_session(
        qp::cohort::healthy, 3, qcore::psa_config::conventional()));
    std::size_t n_sub = 0;
    for (; rec.beat_time_s[n_sub] < rec.beat_time_s[0] + 100.0; ++n_sub)
        ASSERT_TRUE(mgr.ingest(sub, rec.beat_time_s[n_sub], rec.rr_s[n_sub]));
    EXPECT_FALSE(mgr.at(sub).due());
    EXPECT_EQ(mgr.drain_all(), 0u);
    EXPECT_FALSE(mgr.at(sub).has_pending());
    EXPECT_EQ(mgr.at(sub).beats_ingested(), n_sub);

    // An unstarted monitor with a backlog longer than a window: its end is
    // +inf, so it is not due, but it cannot wait either -- the pass drains
    // the whole backlog, closing its windows on the way.
    const auto backlog = mgr.add_session(patient_session(
        qp::cohort::healthy, 3, qcore::psa_config::conventional()));
    for (std::size_t b = 0; b < rec.beats(); ++b)
        ASSERT_TRUE(mgr.ingest(backlog, rec.beat_time_s[b], rec.rr_s[b]));
    EXPECT_FALSE(mgr.at(backlog).due());
    EXPECT_GT(mgr.drain_all(), 0u);
    EXPECT_FALSE(mgr.at(backlog).has_pending());
    EXPECT_EQ(mgr.at(backlog).beats_ingested(), rec.beats());
    expect_reports_identical(
        mgr.at(backlog).reports(),
        serial_reports(rec, qcore::psa_config::conventional()));
}

// ------------------------------------------------- pump contract
//
// pump() drains a session only when it is ready(): due, or unable to wait
// (unstarted monitor, ring at least half full, high-water callback).
// Every other session keeps its beats in the ring; drain_all() drains
// every pending session.

namespace {

/// Beats of `rec` in [from, to) as ring samples.
std::vector<qs::beat_sample> beats_of(const qp::rr_record& rec,
                                      std::size_t from, std::size_t to) {
    std::vector<qs::beat_sample> out;
    for (std::size_t b = from; b < to; ++b)
        out.push_back({rec.beat_time_s[b], rec.rr_s[b]});
    return out;
}

}  // namespace

TEST(PumpContractTest, StartedNonDueSessionKeepsItsBeatsInTheRing) {
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 5), 600.0);
    const auto cfg = qcore::psa_config::conventional();
    qs::plan_cache cache;
    qs::service_options opt;
    opt.threads = 2;
    qs::session_manager mgr(opt, &cache);
    const auto id = mgr.add_session(patient_session(qp::cohort::healthy, 5, cfg));
    const qs::session& s = mgr.at(id);

    // Start the monitor and close the first windows.
    std::size_t b = 0;
    for (; rec.beat_time_s[b] < rec.beat_time_s[0] + 200.0; ++b)
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    EXPECT_GT(mgr.drain_all(), 0u);
    const std::uint64_t ingested = s.beats_ingested();

    // Beats before the next window end wait across any number of passes.
    const real end = s.monitor().next_window_end();
    const std::size_t waiting_from = b;
    for (; rec.beat_time_s[b] < end; ++b) {
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
        EXPECT_FALSE(s.ready());
        EXPECT_EQ(mgr.pump(), 0u);
        EXPECT_TRUE(s.has_pending());
    }
    ASSERT_GT(b, waiting_from);
    EXPECT_EQ(s.beats_ingested(), ingested);

    // The beat at the window end makes the session due: the next pass
    // drains every waiting beat and closes the window.
    ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    ++b;
    EXPECT_TRUE(s.due());
    EXPECT_GT(mgr.pump(), 0u);
    EXPECT_FALSE(s.has_pending());
    EXPECT_EQ(s.beats_ingested(), ingested + (b - waiting_from));

    // None was lost: the rest of the record drains to the serial reports.
    for (; b < rec.beats(); ++b)
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    mgr.drain_all();
    EXPECT_EQ(s.beats_ingested(), rec.beats());
    expect_reports_identical(s.reports(), serial_reports(rec, cfg));
}

TEST(PumpContractTest, RingAtHalfCapacityDrainsOnTheNextPump) {
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 6), 300.0);
    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);
    auto cfg = patient_session(qp::cohort::healthy, 6,
                               qcore::psa_config::conventional());
    cfg.ingest_capacity = 64;  // drains once 32 beats wait
    const auto id = mgr.add_session(std::move(cfg));
    const qs::session& s = mgr.at(id);
    ASSERT_LT(rec.beat_time_s[32], rec.beat_time_s[0] + 120.0);

    // The first beat sets the window phase (an unstarted monitor drains).
    ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[0], rec.rr_s[0]));
    mgr.pump();
    EXPECT_FALSE(s.has_pending());

    // Up to 31 buffered beats wait ...
    std::size_t b = 1;
    for (; b < 32; ++b) {
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
        EXPECT_EQ(mgr.pump(), 0u);
        EXPECT_TRUE(s.has_pending()) << "beat " << b;
    }
    EXPECT_EQ(s.beats_ingested(), 1u);

    // ... the 32nd fills half the ring, and the next pass drains it
    // although no window is due.
    ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    EXPECT_FALSE(s.due());
    EXPECT_TRUE(s.ready());
    EXPECT_EQ(mgr.pump(), 0u);
    EXPECT_FALSE(s.has_pending());
    EXPECT_EQ(s.beats_ingested(), 33u);
}

TEST(PumpContractTest, UnstartedMonitorDrainsOnItsFirstPass) {
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 8), 120.0);
    qs::plan_cache cache;
    qs::session_manager mgr({}, &cache);
    const auto id = mgr.add_session(patient_session(
        qp::cohort::healthy, 8, qcore::psa_config::conventional()));
    const qs::session& s = mgr.at(id);
    for (std::size_t b = 0; b < 10; ++b)
        ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));

    EXPECT_FALSE(s.monitor().started());
    EXPECT_FALSE(s.due());  // the window end is +inf until the first beat
    EXPECT_TRUE(s.ready());
    EXPECT_EQ(mgr.pump(), 0u);
    EXPECT_FALSE(s.has_pending());
    EXPECT_TRUE(s.monitor().started());
    EXPECT_EQ(s.beats_ingested(), 10u);
}

TEST(PumpContractTest, DrainAllLeavesNothingPending) {
    // Trickle a mixed fleet with pumps and stop mid-record: beats wait in
    // some rings.  drain_all() then drains every pending session, due or
    // not, and each session's reports equal the serial run over exactly
    // the beats it was delivered.
    constexpr unsigned n = 6;
    const std::vector<qcore::psa_config> configs = {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::welch(),
    };
    std::vector<qp::rr_record> recs;
    qs::plan_cache cache;
    qs::service_options opt;
    opt.threads = 2;
    qs::session_manager mgr(opt, &cache);
    for (unsigned i = 0; i < n; ++i) {
        recs.push_back(
            qp::record_for(qp::make_patient(qp::cohort::healthy, i), 400.0));
        mgr.add_session(
            patient_session(qp::cohort::healthy, i, configs[i % 3]));
    }
    std::vector<std::size_t> next(n, 0);
    for (std::size_t step = 0, more = 1; more != 0; ++step) {
        more = 0;
        for (unsigned i = 0; i < n; ++i) {
            const std::size_t stop = recs[i].beats() / 2;
            const std::size_t k = 1 + (step + 2 * i) % 3;
            for (std::size_t j = 0; j < k && next[i] < stop; ++j, ++next[i])
                ASSERT_TRUE(mgr.ingest(i, recs[i].beat_time_s[next[i]],
                                       recs[i].rr_s[next[i]]));
            if (next[i] < stop) more = 1;
        }
        mgr.pump();
    }
    bool waiting = false;
    for (unsigned i = 0; i < n; ++i) waiting = waiting || mgr.at(i).has_pending();
    EXPECT_TRUE(waiting);

    mgr.drain_all();
    for (unsigned i = 0; i < n; ++i) {
        const qs::session& s = mgr.at(i);
        EXPECT_FALSE(s.has_pending()) << "session " << i;
        EXPECT_EQ(s.beats_ingested(), next[i]) << "session " << i;
        const auto delivered = beats_of(recs[i], 0, next[i]);
        expect_reports_identical(s.reports(),
                                 serial_reports(delivered, configs[i % 3]));
    }
}

// ------------------------------------------------- energy accumulation

TEST(FleetEnergyTest, AccumulatorRollsUpWindowsAndPartials) {
    // price_window prices one window; per-worker partials roll up
    // through fleet_energy_totals::operator+=.
    qpsa::counting::op_counts ops;
    ops.adds = 10000;
    ops.muls = 8000;

    const auto one =
        qpsa::energy::price_window(qpsa::energy::node_model{}, 60.0, ops);
    EXPECT_EQ(one.windows, 1u);
    EXPECT_EQ(one.ops, ops);
    EXPECT_GT(one.cycles, 0.0);
    EXPECT_GT(one.time_nominal_s, 0.0);
    EXPECT_GT(one.energy_nominal_j, 0.0);
    EXPECT_LE(one.energy_vfs_j, one.energy_nominal_j);

    qpsa::energy::fleet_energy_totals t;
    t += one;
    t += one;
    t += one;
    EXPECT_EQ(t.windows, 3u);
    EXPECT_EQ(t.ops.adds, 30000u);
    EXPECT_EQ(t.ops.muls, 24000u);
    EXPECT_DOUBLE_EQ(t.cycles, 3.0 * one.cycles);
    EXPECT_DOUBLE_EQ(t.time_nominal_s, 3.0 * one.time_nominal_s);
    EXPECT_DOUBLE_EQ(t.energy_nominal_j, 3.0 * one.energy_nominal_j);
    EXPECT_DOUBLE_EQ(t.energy_vfs_j, 3.0 * one.energy_vfs_j);
    EXPECT_EQ(t.mean_energy_per_window_j(), t.energy_nominal_j / 3.0);
}

// ------------------------------------------------------- random streams

TEST(RandomStreamTest, DerivedSeedsAreStableAndDistinct) {
    const std::uint64_t base = 42;
    EXPECT_EQ(qpsa::util::derive_stream_seed(base, 0),
              qpsa::util::derive_stream_seed(base, 0));
    EXPECT_NE(qpsa::util::derive_stream_seed(base, 0),
              qpsa::util::derive_stream_seed(base, 1));
    EXPECT_NE(qpsa::util::derive_stream_seed(base, 0),
              qpsa::util::derive_stream_seed(base + 1, 0));

    // Session seeds depend only on (base, id): two managers assign the
    // same streams regardless of construction history.
    qs::plan_cache cache;
    qs::session_manager a({}, &cache);
    qs::session_manager b({}, &cache);
    const auto cfg = [] {
        qs::session_config c;
        c.patient_id = "p";
        c.analysis = qcore::psa_config::conventional();
        c.monitor = paper_monitor();
        return c;
    };
    const auto ida = a.add_session(cfg());
    b.add_session(cfg());
    const auto idb = b.add_session(cfg());
    (void)idb;
    EXPECT_EQ(a.at(ida).seed(), b.at(0).seed());
    EXPECT_NE(b.at(0).seed(), b.at(1).seed());

    // Draws from a forked stream are reproducible.
    auto r1 = a.at(ida).make_rng(7);
    auto r2 = a.at(ida).make_rng(7);
    EXPECT_EQ(r1.uniform(0.0, 1.0), r2.uniform(0.0, 1.0));
}

TEST(RandomStreamTest, ZeroSigmaGaussianIsZeroAndAdvancesLikeUnitSigma) {
    // sigma = 0 is a valid request (a noise-free synthetic record): it
    // returns 0 and consumes the same engine draws as sigma = 1, so every
    // later draw of a seeded stream is unchanged.
    qpsa::util::rng zero(7);
    qpsa::util::rng unit(7);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(zero.gaussian(0.0), 0.0);
        (void)unit.gaussian(1.0);
        EXPECT_EQ(zero.engine(), unit.engine()) << i;
    }
    EXPECT_EQ(zero.gaussian(2.5), unit.gaussian(2.5));
}

