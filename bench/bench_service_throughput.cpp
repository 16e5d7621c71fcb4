// Service-layer throughput: concurrent multi-patient HRV analysis.
//
// Drives the qpsa::service engine with fleets of 1, 8, 64 and 512
// simulated patients (physio::patients records) over an eight-kind engine
// mix (double conventional/wavelet/pruned, Q15 and Q31 fixed point, Burg
// AR, resampled FFT and Welch), measures sessions/sec, windows/sec and
// beats/sec, reports the
// shared plan-cache hit rate, the per-engine-kind window split and the
// fleet energy roll-up, and verifies that every session's window series
// is bit-identical (<= 1e-9) to a serial streaming_monitor run of the
// same record.  A sharded scenario re-runs the 512-patient cohort behind
// the consistent-hash shard_router at K = 1/2/4/8, asserting the merged
// fleet stays bit-identical to serial and that the per-shard snapshot
// wire format round-trips losslessly under merge.
//
// Allocation accounting: this binary replaces the global operator new so
// every heap allocation on every thread is counted.  Each fleet streams a
// warm-up prefix first (arenas size themselves, vectors reach their
// steady capacity, caches fill), then the remainder is measured and
// reported as allocs_per_window -- the service's zero-allocation hot-path
// budget (<= 1 per window, CI-enforced against the committed baseline).
// Emits BENCH_service.json for the perf trajectory.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <cstring>

#include "common.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/journal/replay_driver.hpp"
#include "qpsa/lomb/fftw_engine.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/wavelet/dwt.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"
#include "qpsa/journal/report_reader.hpp"
#include "qpsa/net/aggregator.hpp"
#include "qpsa/net/ingest_client.hpp"
#include "qpsa/net/ingest_server.hpp"
#include "qpsa/net/snapshot_publisher.hpp"
#include "qpsa/service/service.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/util/table.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: replacing these signatures in any TU of the
// binary replaces them binary-wide, so library allocations are counted too.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc{};
}

std::uint64_t heap_allocs() {
    return g_heap_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
// ---------------------------------------------------------------------------

using namespace qpsa;
using clock_type = std::chrono::steady_clock;

namespace {

struct fleet_result {
    unsigned patients = 0;
    std::uint64_t beats = 0;
    std::uint64_t windows = 0;
    double wall_ms = 0.0;
    double sessions_per_s = 0.0;
    double windows_per_s = 0.0;
    double beats_per_s = 0.0;
    double cache_hit_rate = 0.0;
    /// Plan-cache hit rate over warm lookups only: every distinct config's
    /// first lookup is a compulsory cold build, so small fleets otherwise
    /// read 0% purely from their cold builds.  1.0 when every lookup was
    /// compulsory (vacuously, all non-compulsory lookups hit).
    double cache_hit_rate_warm = 1.0;
    std::size_t cache_entries = 0;
    double max_abs_diff = 0.0;
    bool identical = true;
    double energy_nominal_j = 0.0;
    double energy_vfs_j = 0.0;
    double arrhythmia_fraction = 0.0;
    std::size_t workers = 0;
    std::uint64_t beats_dropped = 0;
    /// Steady-state heap allocations per completed window (measured after
    /// the warm-up prefix; all threads, all layers).
    double allocs_per_window = 0.0;
    std::uint64_t measured_windows = 0;
    /// Governor mode switches across the fleet (0 for ungoverned runs).
    std::uint64_t mode_switches = 0;
    std::array<qpsa::service::engine_tally, qpsa::core::engine_class_count>
        by_engine{};
};

/// Battery-drain scenario: a governed fleet degrading double -> Q15 ->
/// pruned as simulated charge falls (the paper's Fig. 2 loop, closed).
struct governed_result {
    unsigned patients = 0;
    std::uint64_t windows = 0;
    std::uint64_t mode_switches = 0;
    double wall_ms = 0.0;
    double windows_per_s = 0.0;
    double allocs_per_window = 0.0;
    std::uint64_t measured_windows = 0;
    double battery_fraction_min = 1.0;
    /// Every session walked the whole ladder (2 switches, ends pruned).
    bool ladder_complete = true;
    std::array<qpsa::service::engine_tally, qpsa::core::engine_class_count>
        by_engine{};
};

/// Baseline values parsed from a previously committed BENCH_service.json.
struct baseline_fleet {
    bool found = false;
    double windows_per_s = 0.0;
    double allocs_per_window = -1.0;  ///< < 0: field absent in baseline
};

core::monitor_options paper_monitor() {
    core::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

/// The standard mode mix a fleet would actually run: the paper's double
/// pair plus a pruned mode, both fixed-point wordlengths, the Burg AR
/// baseline and the two uniform-resampling estimators (arena-threaded
/// like everything else, so they sit inside the alloc-gated mix) --
/// eight engine kinds through one plan cache.
std::vector<core::psa_config> mode_mix() {
    return {
        core::psa_config::conventional(),
        core::psa_config::proposed(wfft::plan::exact(512, wavelet::basis::haar)),
        core::psa_config::proposed(wfft::plan::static_pruned(
            512, wavelet::basis::haar, wfft::twiddle_set::set2)),
        core::psa_config::fixed_wavelet(core::fixed_format::q15),
        core::psa_config::fixed_wavelet(core::fixed_format::q31),
        core::psa_config::burg_ar(),
        core::psa_config::resampled(),
        core::psa_config::welch(),
    };
}

std::vector<core::window_report> serial_reports(const physio::rr_record& rec,
                                                core::psa_config cfg) {
    core::streaming_monitor mon(std::move(cfg), paper_monitor());
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    std::vector<core::window_report> out;
    while (auto rep = mon.poll()) out.push_back(*rep);
    return out;
}

fleet_result run_fleet(unsigned n_patients, real record_seconds) {
    const auto configs = mode_mix();

    // Records are generated up front so only service work is timed.
    std::vector<physio::rr_record> records;
    records.reserve(n_patients);
    std::uint64_t total_beats = 0;
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto group = i % 2 == 0 ? physio::cohort::sinus_arrhythmia
                                      : physio::cohort::healthy;
        records.push_back(physio::record_for(
            physio::make_patient(group, i % 64), record_seconds));
        total_beats += records.back().beats();
    }

    service::service_options opt;
    opt.vfs_deadline_s = paper_monitor().hop_seconds;
    service::plan_cache cache;
    service::session_manager mgr(opt, &cache);

    const auto t0 = clock_type::now();
    for (unsigned i = 0; i < n_patients; ++i) {
        service::session_config cfg;
        cfg.patient_id = physio::make_patient(
                             i % 2 == 0 ? physio::cohort::sinus_arrhythmia
                                        : physio::cohort::healthy,
                             i % 64)
                             .id;
        cfg.analysis = configs[i % configs.size()];
        cfg.monitor = paper_monitor();
        cfg.ingest_capacity = 512;
        mgr.add_session(std::move(cfg));
    }

    // Stream beats round-robin in bounded chunks, pumping between rounds
    // -- the arrival pattern of a real ingest edge, and it keeps every
    // ring well under capacity.  Per-record ranges let the run split into
    // a warm-up prefix and a measured steady-state remainder without
    // changing any session's beat order.
    constexpr std::size_t chunk = 256;
    const auto stream_range = [&](double lo_frac, double hi_frac) {
        std::size_t step = 0;
        bool remaining = true;
        while (remaining) {
            remaining = false;
            for (unsigned i = 0; i < n_patients; ++i) {
                const auto& rec = records[i];
                const auto lo = static_cast<std::size_t>(
                    lo_frac * static_cast<double>(rec.beats()));
                const auto hi = static_cast<std::size_t>(
                    hi_frac * static_cast<double>(rec.beats()));
                const std::size_t begin = std::min(lo + step * chunk, hi);
                const std::size_t end = std::min(begin + chunk, hi);
                for (std::size_t b = begin; b < end; ++b)
                    while (!mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                        mgr.pump();
                if (end < hi) remaining = true;
            }
            ++step;
            mgr.pump();
        }
    };

    const auto fleet_windows = [&] {
        std::uint64_t w = 0;
        for (unsigned i = 0; i < n_patients; ++i)
            w += mgr.at(i).windows_completed();
        return w;
    };

    // Warm-up: arenas reach their high-water marks, vectors their steady
    // capacities, caches fill.  ~60 % of the record completes the first
    // window of every session.
    constexpr double warmup_fraction = 0.6;
    stream_range(0.0, warmup_fraction);
    mgr.drain_all();
    const std::uint64_t allocs0 = heap_allocs();
    const std::uint64_t windows0 = fleet_windows();

    // Measured steady state.
    stream_range(warmup_fraction, 1.0);
    mgr.drain_all();
    const std::uint64_t allocs1 = heap_allocs();
    const std::uint64_t windows1 = fleet_windows();
    const auto t1 = clock_type::now();

    fleet_result r;
    r.patients = n_patients;
    r.beats = total_beats;
    r.workers = mgr.worker_count();
    r.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    r.measured_windows = windows1 - windows0;
    r.allocs_per_window =
        r.measured_windows > 0
            ? static_cast<double>(allocs1 - allocs0) /
                  static_cast<double>(r.measured_windows)
            : 0.0;

    const auto fleet = mgr.fleet();
    r.windows = fleet.windows;
    r.sessions_per_s = n_patients / (r.wall_ms / 1000.0);
    r.windows_per_s = fleet.windows / (r.wall_ms / 1000.0);
    r.beats_per_s = total_beats / (r.wall_ms / 1000.0);
    const auto cs = mgr.cache_stats();
    r.cache_hit_rate = cs.hit_rate();
    // Each entry was built exactly once, so (hits + misses - entries) is
    // the number of lookups that had a chance to hit.
    const std::uint64_t warm_lookups =
        cs.hits + cs.misses - std::min<std::uint64_t>(cs.entries, cs.misses);
    r.cache_hit_rate_warm =
        warm_lookups > 0
            ? static_cast<double>(cs.hits) / static_cast<double>(warm_lookups)
            : 1.0;
    r.cache_entries = cs.entries;
    r.energy_nominal_j = fleet.energy.energy_nominal_j;
    r.energy_vfs_j = fleet.energy.energy_vfs_j;
    r.arrhythmia_fraction = fleet.arrhythmia_fraction();
    r.beats_dropped = fleet.beats_dropped;
    r.mode_switches = fleet.mode_switches;
    r.by_engine = fleet.by_engine;

    // Verification pass (untimed): every session must match its serial
    // reference bit-for-bit (the 1e-9 bound is the acceptance ceiling).
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto want = serial_reports(records[i], configs[i % configs.size()]);
        const auto got = mgr.at(i).reports();
        if (got.size() != want.size()) {
            r.identical = false;
            r.max_abs_diff = std::numeric_limits<double>::infinity();
            break;
        }
        for (std::size_t w = 0; w < want.size(); ++w) {
            const double diffs[] = {
                std::abs(got[w].bands.lf - want[w].bands.lf),
                std::abs(got[w].bands.hf - want[w].bands.hf),
                std::abs(got[w].bands.total - want[w].bands.total),
                std::abs(got[w].ratio() - want[w].ratio()),
            };
            for (const double d : diffs) r.max_abs_diff = std::max(r.max_abs_diff, d);
            if (got[w].ops != want[w].ops) r.identical = false;
        }
    }
    if (r.max_abs_diff > 1e-9) r.identical = false;
    return r;
}

/// The degradation ladder of the governed scenario: exact double -> Q15
/// fixed point -> pruned wavelet, with hand-set calibration numbers
/// (monotone distortion, monotone savings) -- what a design-time
/// build_quality_controller run would produce, without its cost.
std::shared_ptr<const core::quality_controller> degradation_ladder() {
    std::vector<core::mode_profile> table(3);
    table[0].name = "conventional";
    table[0].spec = core::conventional_spec{};
    table[1].name = "fixed-q15";
    table[1].spec = core::fixed_wavelet_spec{core::fixed_format::q15};
    table[1].expected_error_pct = 2.0;
    table[1].expected_savings_vfs = 0.35;
    table[2].name = "pruned";
    table[2].spec = core::wavelet_spec{wfft::plan::static_pruned(
        512, wavelet::basis::haar, wfft::twiddle_set::set2)};
    table[2].expected_error_pct = 7.0;
    table[2].expected_savings_vfs = 0.6;
    return std::make_shared<const core::quality_controller>(std::move(table));
}

governed_result run_governed_fleet(unsigned n_patients, real record_seconds) {
    const auto ladder = degradation_ladder();

    std::vector<physio::rr_record> records;
    records.reserve(n_patients);
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto group = i % 2 == 0 ? physio::cohort::sinus_arrhythmia
                                      : physio::cohort::healthy;
        records.push_back(physio::record_for(
            physio::make_patient(group, i % 64), record_seconds));
    }

    service::service_options opt;
    opt.vfs_deadline_s = paper_monitor().hop_seconds;
    service::plan_cache cache;
    service::session_manager mgr(opt, &cache);

    const auto t0 = clock_type::now();
    for (unsigned i = 0; i < n_patients; ++i) {
        service::session_config cfg;
        cfg.patient_id = "governed-" + std::to_string(i);
        cfg.analysis = core::psa_config::conventional();
        cfg.monitor = paper_monitor();
        cfg.ingest_capacity = 512;
        cfg.quality.controller = ladder;
        cfg.quality.governed = true;
        cfg.quality.governor.reselect_every = 1;
        cfg.quality.governor.min_dwell = 2;
        cfg.quality.governor.switch_margin = 0.02;
        cfg.quality.governor.budget_empty_pct = 10.0;
        // A battery the duty-cycle overhead (~2.8e-4 J/window) walks
        // through both mode boundaries within the record.
        cfg.battery.capacity_j = 2.6e-3;
        mgr.add_session(std::move(cfg));
    }

    const auto stream_range = [&](double lo_frac, double hi_frac) {
        constexpr std::size_t chunk = 256;
        std::size_t step = 0;
        bool remaining = true;
        while (remaining) {
            remaining = false;
            for (unsigned i = 0; i < n_patients; ++i) {
                const auto& rec = records[i];
                const auto lo = static_cast<std::size_t>(
                    lo_frac * static_cast<double>(rec.beats()));
                const auto hi = static_cast<std::size_t>(
                    hi_frac * static_cast<double>(rec.beats()));
                const std::size_t begin = std::min(lo + step * chunk, hi);
                const std::size_t end = std::min(begin + chunk, hi);
                for (std::size_t b = begin; b < end; ++b)
                    while (!mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                        mgr.pump();
                if (end < hi) remaining = true;
            }
            ++step;
            mgr.pump();
        }
    };

    // Warm-up covers the first ladder rung; the measured remainder holds
    // the steady state plus the deeper switches (switching itself must
    // stay within the allocation budget -- it is a cache lookup).
    constexpr double warmup_fraction = 0.5;
    stream_range(0.0, warmup_fraction);
    mgr.drain_all();
    const std::uint64_t allocs0 = heap_allocs();
    const auto windows_at = [&] {
        std::uint64_t w = 0;
        for (unsigned i = 0; i < n_patients; ++i)
            w += mgr.at(i).windows_completed();
        return w;
    };
    const std::uint64_t windows0 = windows_at();

    stream_range(warmup_fraction, 1.0);
    mgr.drain_all();
    const std::uint64_t allocs1 = heap_allocs();
    const auto t1 = clock_type::now();

    governed_result g;
    g.patients = n_patients;
    g.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    g.measured_windows = windows_at() - windows0;
    g.allocs_per_window =
        g.measured_windows > 0
            ? static_cast<double>(allocs1 - allocs0) /
                  static_cast<double>(g.measured_windows)
            : 0.0;

    const auto fleet = mgr.fleet();
    g.windows = fleet.windows;
    g.windows_per_s = fleet.windows / (g.wall_ms / 1000.0);
    g.mode_switches = fleet.mode_switches;
    g.battery_fraction_min = fleet.battery_fraction_min;
    g.by_engine = fleet.by_engine;
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto log = mgr.at(i).switch_log();
        const bool walked =
            log.size() == 2 && log[0].mode_index == 1 && log[1].mode_index == 2;
        g.ladder_complete = g.ladder_complete && walked;
    }
    return g;
}

/// One sharded-fleet run: the same 512-patient cohort partitioned across
/// K session_manager shards by the consistent-hash router.
struct shard_result {
    unsigned shards = 0;
    unsigned patients = 0;
    std::uint64_t windows = 0;
    double wall_ms = 0.0;
    double windows_per_s = 0.0;
    double allocs_per_window = 0.0;
    std::uint64_t measured_windows = 0;
    double cache_hit_rate = 0.0;
    /// Every session's window series bit-identical to its serial
    /// reference, and the merged snapshot's integer tallies equal the
    /// per-session sums.
    bool identical = true;
    /// serialize -> deserialize -> merge of the per-shard snapshots
    /// equals the in-process merge bit for bit.
    bool wire_roundtrip_identical = true;
    std::vector<std::uint64_t> per_shard_windows;
    std::vector<double> per_shard_windows_per_s;
};

/// Cohort shared by every K so the serial references are computed once.
struct shard_cohort {
    std::vector<physio::rr_record> records;
    std::vector<core::psa_config> configs;
    std::vector<std::vector<core::window_report>> serial;
};

shard_cohort make_shard_cohort(unsigned n_patients, real record_seconds) {
    shard_cohort c;
    const auto configs = mode_mix();
    c.records.reserve(n_patients);
    c.configs.reserve(n_patients);
    c.serial.reserve(n_patients);
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto group = i % 2 == 0 ? physio::cohort::sinus_arrhythmia
                                      : physio::cohort::healthy;
        c.records.push_back(physio::record_for(
            physio::make_patient(group, i % 64), record_seconds));
        c.configs.push_back(configs[i % configs.size()]);
        c.serial.push_back(serial_reports(c.records.back(), c.configs.back()));
    }
    return c;
}

shard_result run_sharded_fleet(const shard_cohort& cohort, unsigned shards) {
    const auto n_patients = static_cast<unsigned>(cohort.records.size());

    service::router_options opt;
    opt.shards = shards;
    opt.shard.vfs_deadline_s = paper_monitor().hop_seconds;
    service::plan_cache cache;
    service::shard_router router(opt, &cache);

    const auto t0 = clock_type::now();
    for (unsigned i = 0; i < n_patients; ++i) {
        service::session_config cfg;
        cfg.patient_id = "shard-patient-" + std::to_string(i);
        cfg.analysis = cohort.configs[i];
        cfg.monitor = paper_monitor();
        cfg.ingest_capacity = 512;
        router.add_session(std::move(cfg));
    }

    constexpr std::size_t chunk = 256;
    const auto stream_range = [&](double lo_frac, double hi_frac) {
        std::size_t step = 0;
        bool remaining = true;
        while (remaining) {
            remaining = false;
            for (unsigned i = 0; i < n_patients; ++i) {
                const auto& rec = cohort.records[i];
                const auto lo = static_cast<std::size_t>(
                    lo_frac * static_cast<double>(rec.beats()));
                const auto hi = static_cast<std::size_t>(
                    hi_frac * static_cast<double>(rec.beats()));
                const std::size_t begin = std::min(lo + step * chunk, hi);
                const std::size_t end = std::min(begin + chunk, hi);
                for (std::size_t b = begin; b < end; ++b)
                    while (!router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                        router.pump();
                if (end < hi) remaining = true;
            }
            ++step;
            router.pump();
        }
    };
    const auto fleet_windows = [&] {
        std::uint64_t w = 0;
        for (unsigned i = 0; i < n_patients; ++i)
            w += router.at(i).windows_completed();
        return w;
    };

    constexpr double warmup_fraction = 0.6;
    stream_range(0.0, warmup_fraction);
    router.drain_all();
    const std::uint64_t allocs0 = heap_allocs();
    const std::uint64_t windows0 = fleet_windows();

    stream_range(warmup_fraction, 1.0);
    router.drain_all();
    const std::uint64_t allocs1 = heap_allocs();
    const std::uint64_t windows1 = fleet_windows();
    const auto t1 = clock_type::now();

    shard_result r;
    r.shards = shards;
    r.patients = n_patients;
    r.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    r.measured_windows = windows1 - windows0;
    r.allocs_per_window =
        r.measured_windows > 0
            ? static_cast<double>(allocs1 - allocs0) /
                  static_cast<double>(r.measured_windows)
            : 0.0;
    r.cache_hit_rate = router.cache_stats().hit_rate();

    const auto merged = router.fleet();
    r.windows = merged.windows;
    r.windows_per_s = merged.windows / (r.wall_ms / 1000.0);
    for (unsigned k = 0; k < shards; ++k) {
        const auto shard_snap = router.shard_fleet(k);
        r.per_shard_windows.push_back(shard_snap.windows);
        r.per_shard_windows_per_s.push_back(shard_snap.windows /
                                            (r.wall_ms / 1000.0));
    }

    // Determinism bar 1 (untimed): every session bit-identical to its
    // serial reference, shard count notwithstanding, and the merged
    // snapshot's integer tallies consistent with the per-session sums.
    std::uint64_t serial_windows = 0;
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto& want = cohort.serial[i];
        const auto got = router.at(i).reports();
        serial_windows += want.size();
        if (got.size() != want.size()) {
            r.identical = false;
            break;
        }
        for (std::size_t w = 0; w < want.size(); ++w)
            if (got[w].bands.lf != want[w].bands.lf ||
                got[w].bands.hf != want[w].bands.hf ||
                got[w].bands.total != want[w].bands.total ||
                got[w].ops != want[w].ops)
                r.identical = false;
    }
    if (merged.windows != serial_windows) r.identical = false;
    std::uint64_t shard_sum = 0;
    for (const auto w : r.per_shard_windows) shard_sum += w;
    if (shard_sum != merged.windows) r.identical = false;

    // Determinism bar 2: the wire round trip.  Serializing every shard's
    // snapshot, deserializing and merging must reproduce the in-process
    // merge bit for bit (doubles included).
    service::fleet_snapshot wired;
    for (unsigned k = 0; k < shards; ++k) {
        const auto bytes = router.shard_fleet(k).serialize();
        const auto snap = service::fleet_snapshot::deserialize(bytes);
        if (k == 0)
            wired = snap;
        else
            wired += snap;
    }
    r.wire_roundtrip_identical = wired == merged;
    return r;
}

/// Durability scenario: the cohort again behind a 2-shard router with the
/// append-only journal attached, against an identical unjournaled run --
/// the journal's throughput overhead, its bytes/window footprint, and the
/// two recovery bars (bit-identical rebuild, bit-identical same-spec
/// replay) in one place.
struct journal_bench_result {
    unsigned patients = 0;
    std::uint64_t windows = 0;
    double wall_ms = 0.0;
    /// One-time shutdown cost: footer + final fsync per shard.  Kept out
    /// of the streaming wall above -- the throughput ratio measures the
    /// steady-state hot-path overhead, not this filesystem's fsync
    /// latency (which the fsync cadence amortizes in a real deployment).
    double close_ms = 0.0;
    double windows_per_s = 0.0;
    double unjournaled_windows_per_s = 0.0;
    /// journaled / unjournaled streaming throughput (CI gates >= 0.95).
    double throughput_ratio = 1.0;
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_fsyncs = 0;
    double bytes_per_window = 0.0;
    /// rebuild_fleet_snapshot(dir) == the live merged snapshot, bit for
    /// bit (operator== over every column, double sums included).
    bool rebuild_identical = false;
    /// Replaying the journaled beat streams under the original configs
    /// reproduced every window report bit for bit.
    bool replay_identical = false;
};

struct journal_pass_times {
    double stream_ms = 0.0;  ///< admit + ingest + drain + buffer flush
    double close_ms = 0.0;   ///< footer + final fsync (zero unjournaled)
    /// Process CPU time (user + sys, all threads) over the streaming
    /// phase.  The fleet saturates every core, so journaling overhead
    /// shows up 1:1 in CPU time -- and unlike wall clock, CPU time is
    /// immune to the scheduler/steal noise of a shared CI runner.
    double stream_cpu_ms = 0.0;
};

double process_cpu_ms() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto tv_ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1000.0 +
               static_cast<double>(tv.tv_usec) / 1000.0;
    };
    return tv_ms(u.ru_utime) + tv_ms(u.ru_stime);
}

/// One streaming pass of the cohort through a 2-shard router; journals to
/// `dir` when non-empty.  Returns the phase timings and the post-close
/// snapshot.
journal_pass_times journal_pass(const shard_cohort& cohort,
                                const std::string& dir,
                                service::fleet_snapshot& live_out) {
    const auto n_patients = static_cast<unsigned>(cohort.records.size());
    service::router_options opt;
    opt.shards = 2;
    opt.shard.vfs_deadline_s = paper_monitor().hop_seconds;
    opt.journal_dir = dir;
    service::plan_cache cache;
    service::shard_router router(opt, &cache);

    const double cpu0 = process_cpu_ms();
    const auto t0 = clock_type::now();
    for (unsigned i = 0; i < n_patients; ++i) {
        service::session_config cfg;
        cfg.patient_id = "journal-patient-" + std::to_string(i);
        cfg.analysis = cohort.configs[i];
        cfg.monitor = paper_monitor();
        // Rebuild equality requires a drop-free run (the drain-side log
        // cannot see the ingest edge): size the rings for the whole record.
        cfg.ingest_capacity = 4096;
        router.add_session(std::move(cfg));
    }
    constexpr std::size_t chunk = 256;
    std::size_t step = 0;
    bool remaining = true;
    while (remaining) {
        remaining = false;
        for (unsigned i = 0; i < n_patients; ++i) {
            const auto& rec = cohort.records[i];
            const std::size_t begin = std::min(step * chunk, rec.beats());
            const std::size_t end = std::min(begin + chunk, rec.beats());
            for (std::size_t b = begin; b < end; ++b)
                while (!router.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                    router.pump();
            if (end < rec.beats()) remaining = true;
        }
        ++step;
        router.pump();
    }
    router.drain_all();
    router.flush_journals(false);
    const auto t1 = clock_type::now();
    const double cpu1 = process_cpu_ms();
    router.close_journals();
    const auto t2 = clock_type::now();
    live_out = router.fleet();
    const auto ms = [](auto a, auto b) {
        return std::chrono::duration_cast<
                   std::chrono::duration<double, std::milli>>(b - a)
            .count();
    };
    return {ms(t0, t1), ms(t1, t2), cpu1 - cpu0};
}

journal_bench_result run_journaled_fleet(const shard_cohort& cohort) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "qpsa-bench-journal";
    fs::remove_all(dir);

    journal_bench_result r;
    r.patients = static_cast<unsigned>(cohort.records.size());

    // Six ABBA groups (plain, journaled, journaled, plain), ratio taken
    // on process CPU time from the *quietest* group.  Both arms are
    // deterministic in their results, so timing differences are noise --
    // a shared CI runner drifts by ~10% over the seconds a pass takes
    // (whichever arm ran second in a plain pair measured ~5% slower with
    // a *no-op* writer, more than the journaling cost itself).  The fleet
    // saturates every core, so real overhead shows up 1:1 in CPU time,
    // which scheduler/steal noise cannot inflate -- but memory-stall
    // noise from neighbor tenants still can.  In a quiet window all four
    // passes agree to ~1%, so the group with the smallest internal
    // spread is the measurement taken when the machine was actually
    // still; its ratio is the honest estimate of the true overhead.
    // Adaptive: groups are sampled (at least three, at most twelve) until
    // one lands in a window quiet enough that all four passes agree to
    // ~1% -- there the ratio is within ~1% of the truth, which is what
    // lets a >= 0.95 gate separate a real 5% regression from noise.
    service::fleet_snapshot unjournaled, live;
    double plain_ms = std::numeric_limits<double>::infinity();
    r.wall_ms = std::numeric_limits<double>::infinity();
    double best_spread = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 12 && !(rep >= 3 && best_spread <= 1.01);
         ++rep) {
        const auto p1 = journal_pass(cohort, "", unjournaled);
        const auto j1 = journal_pass(cohort, dir.string(), live);
        const auto j2 = journal_pass(cohort, dir.string(), live);
        const auto p2 = journal_pass(cohort, "", unjournaled);
        const std::array<double, 4> cpu = {p1.stream_cpu_ms, j1.stream_cpu_ms,
                                           j2.stream_cpu_ms, p2.stream_cpu_ms};
        const auto [mn, mx] = std::minmax_element(cpu.begin(), cpu.end());
        const double spread = *mx / *mn;
        if (spread < best_spread) {
            best_spread = spread;
            r.throughput_ratio = (p1.stream_cpu_ms + p2.stream_cpu_ms) /
                                 (j1.stream_cpu_ms + j2.stream_cpu_ms);
        }
        plain_ms = std::min({plain_ms, p1.stream_ms, p2.stream_ms});
        r.wall_ms = std::min({r.wall_ms, j1.stream_ms, j2.stream_ms});
        r.close_ms = j2.close_ms;
    }
    r.unjournaled_windows_per_s =
        static_cast<double>(unjournaled.windows) / (plain_ms / 1000.0);
    r.windows = live.windows;
    r.windows_per_s = static_cast<double>(live.windows) / (r.wall_ms / 1000.0);
    r.journal_appends = live.journal_appends;
    r.journal_bytes = live.journal_bytes;
    r.journal_fsyncs = live.journal_fsyncs;
    r.bytes_per_window =
        live.windows > 0
            ? static_cast<double>(live.journal_bytes) /
                  static_cast<double>(live.windows)
            : 0.0;

    // Recovery bar 1 (untimed): scanning the on-disk logs reconstructs
    // the live merged snapshot bit for bit.
    const auto rebuilt = journal::rebuild_fleet_snapshot(dir.string());
    r.rebuild_identical = rebuilt == live;

    // Recovery bar 2: replaying the journaled beat streams under the
    // original per-patient configs reproduces every report bit for bit.
    std::unordered_map<std::string, const core::psa_config*> by_patient;
    for (unsigned i = 0; i < r.patients; ++i)
        by_patient["journal-patient-" + std::to_string(i)] =
            &cohort.configs[i];
    const journal::replay_driver driver(dir.string());
    const journal::replay_result replay = driver.run(
        [&by_patient](const journal::session_meta& meta) {
            service::session_config cfg;
            cfg.patient_id = meta.patient_id;
            cfg.analysis = *by_patient.at(meta.patient_id);
            cfg.monitor = meta.monitor;
            cfg.ingest_capacity = 4096;
            return cfg;
        });
    r.replay_identical =
        replay.all_identical && replay.windows == live.windows;

    fs::remove_all(dir);
    return r;
}

// --------------------------------------------------------- FFTW probe

/// Vendor-FFT A/B: the Fast-Lomb pipeline with its mesh transform
/// delegated to FFTW3 against the split-radix reference, same cohort and
/// schedule.  Availability is a build-time fact -- in builds without the
/// library the row records available = false and nothing runs (the opt-in
/// CI job installs libfftw3-dev and exercises the full row).
struct fftw_ab_result {
    bool available = false;
    unsigned patients = 0;
    std::uint64_t windows = 0;
    double cpu_ms_split_radix = 0.0;
    double cpu_ms_fftw = 0.0;
    /// split-radix / fftw CPU time (> 1: the vendor library is faster).
    double speedup = 1.0;
    /// Largest relative band-power deviation between the two engines
    /// (different algorithms, same DFT: rounding-level, not zero).
    double max_rel_diff = 0.0;
    /// Every band within 1e-9 relative of the split-radix reference.
    bool agrees = true;
};

fftw_ab_result run_fftw_ab(unsigned n_patients, real record_seconds) {
    fftw_ab_result r;
    r.available = lomb::fftw_engine_available();
    if (!r.available) return r;

    std::vector<physio::rr_record> records;
    records.reserve(n_patients);
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto group = i % 2 == 0 ? physio::cohort::sinus_arrhythmia
                                      : physio::cohort::healthy;
        records.push_back(physio::record_for(
            physio::make_patient(group, i % 64), record_seconds));
    }
    r.patients = n_patients;

    const auto pass = [&](const core::psa_config& cfg_template,
                          std::vector<std::vector<core::window_report>>* out) {
        service::service_options opt;
        opt.vfs_deadline_s = paper_monitor().hop_seconds;
        service::plan_cache cache;
        service::session_manager mgr(opt, &cache);
        const double cpu0 = process_cpu_ms();
        for (unsigned i = 0; i < n_patients; ++i) {
            service::session_config cfg;
            cfg.patient_id = "fftw-patient-" + std::to_string(i);
            cfg.analysis = cfg_template;
            cfg.monitor = paper_monitor();
            cfg.ingest_capacity = 512;
            mgr.add_session(std::move(cfg));
        }
        for (unsigned i = 0; i < n_patients; ++i) {
            const auto& rec = records[i];
            for (std::size_t b = 0; b < rec.beats(); ++b)
                while (!mgr.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                    mgr.pump();
        }
        mgr.drain_all();
        const double cpu1 = process_cpu_ms();
        if (out != nullptr) {
            out->clear();
            for (unsigned i = 0; i < n_patients; ++i) {
                const auto got = mgr.at(i).reports();
                out->emplace_back(got.begin(), got.end());
            }
        }
        return std::pair{cpu1 - cpu0, mgr.fleet().windows};
    };

    // ABBA, best (quietest-ratio irrelevant here: one scalar per arm, so
    // take each arm's minimum -- the classic best-of for a micro A/B).
    std::vector<std::vector<core::window_report>> ref, got;
    double sr = std::numeric_limits<double>::infinity();
    double vd = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        const auto a = pass(core::psa_config::conventional(),
                            rep == 0 ? &ref : nullptr);
        const auto b =
            pass(core::psa_config::fftw(), rep == 0 ? &got : nullptr);
        sr = std::min(sr, a.first);
        vd = std::min(vd, b.first);
        r.windows = b.second;
    }
    r.cpu_ms_split_radix = sr;
    r.cpu_ms_fftw = vd;
    r.speedup = vd > 0.0 ? sr / vd : 1.0;

    r.agrees = ref.size() == got.size();
    for (std::size_t i = 0; r.agrees && i < ref.size(); ++i) {
        if (ref[i].size() != got[i].size()) {
            r.agrees = false;
            break;
        }
        for (std::size_t w = 0; w < ref[i].size(); ++w) {
            const double pairs[][2] = {
                {ref[i][w].bands.lf, got[i][w].bands.lf},
                {ref[i][w].bands.hf, got[i][w].bands.hf},
                {ref[i][w].bands.total, got[i][w].bands.total},
            };
            for (const auto& p : pairs) {
                const double rel =
                    std::abs(p[1] - p[0]) / (1.0 + std::abs(p[0]));
                r.max_rel_diff = std::max(r.max_rel_diff, rel);
            }
        }
    }
    if (r.max_rel_diff > 1e-9) r.agrees = false;
    return r;
}

/// Cross-process transport scenario: the fleet split across two
/// ingest_server shards behind unix-domain sockets, driven by one
/// ingest_client front-end, with a snapshot_publisher per shard feeding
/// an aggregator daemon -- qpsa::net's three-tier topology inside one
/// benchmark process (threads stand in for processes; the wire between
/// them is the real thing).  Includes one live mid-stream migration over
/// the socket.  The two determinism bars CI gates on: the aggregator's
/// merged snapshot and the client's merged stats both bit-identical to
/// an in-process shard_router running the identical schedule (every
/// analysis column; see analysis_view), and the migrated session
/// bit-identical to an unmigrated solo run.
struct transport_result {
    unsigned patients = 0;
    unsigned shards = 0;
    std::uint64_t beats = 0;
    std::uint64_t windows = 0;
    double wall_ms = 0.0;
    double beats_per_s = 0.0;
    std::uint64_t snapshots_published = 0;
    double snapshots_per_s = 0.0;
    std::uint64_t wire_bytes_sent = 0;      ///< client + both publishers
    std::uint64_t wire_bytes_received = 0;  ///< at the aggregator
    double wire_bytes_per_beat = 0.0;
    bool merge_identical = false;
    bool migration_identical = false;
};

/// The config registry both socket shards and the in-process reference
/// resolve admit tokens through (configs never cross the wire).
service::session_config transport_config(std::string_view token,
                                         std::string_view patient_id) {
    service::session_config cfg;
    cfg.patient_id = std::string(patient_id);
    cfg.analysis = core::psa_config::conventional();
    cfg.monitor = paper_monitor();
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

/// A snapshot without its drain-scheduler columns.  The in-process
/// router drains both shards in one pass on one pool, so its lane groups
/// fill across shards and its workers steal; two socket shards drain
/// apart.  Every other column must match bit for bit.
service::fleet_snapshot analysis_view(service::fleet_snapshot s) {
    s.windows_stolen = 0;
    s.lane_slots_filled = 0;
    s.lane_slots_offered = 0;
    return s;
}

transport_result run_transport_fleet(unsigned n_patients,
                                     real record_seconds) {
    namespace qn = qpsa::net;
    const auto sock = [](const char* tag) {
        qn::endpoint ep;
        ep.transport = qn::endpoint::kind::unix_path;
        ep.path = "/tmp/qpsa-bench-" + std::to_string(::getpid()) + "-" +
                  tag + ".sock";
        return ep;
    };

    transport_result r;
    r.patients = n_patients;
    r.shards = 2;

    // Aggregator tier first so the publishers' first dial lands.
    qn::aggregator_options aopt;
    aopt.listen = sock("agg");
    qn::aggregator agg(aopt);
    agg.start();

    // Two shard servers, deterministic profile (threads = 1, drain only
    // on flush frames), each with a cadence publisher shipping its
    // global-id snapshot view to the aggregator while beats stream.
    service::plan_cache cache0, cache1;
    qn::ingest_server_options s0;
    s0.listen = sock("shard0");
    s0.shard_index = 0;
    s0.shard_count = 2;
    s0.service.threads = 1;
    qn::ingest_server_options s1 = s0;
    s1.listen = sock("shard1");
    s1.shard_index = 1;
    qn::ingest_server srv0(s0, transport_config, &cache0);
    qn::ingest_server srv1(s1, transport_config, &cache1);
    srv0.start();
    srv1.start();

    qn::publisher_options p0;
    p0.aggregator = agg.local();
    p0.shard_index = 0;
    p0.shard_count = 2;
    p0.cadence_ms = 20;
    qn::publisher_options p1 = p0;
    p1.shard_index = 1;
    qn::snapshot_publisher pub0(p0, [&srv0] { return srv0.fleet_global(); });
    qn::snapshot_publisher pub1(p1, [&srv1] { return srv1.fleet_global(); });
    pub0.start();
    pub1.start();

    qn::ingest_client_options copt;
    copt.shards = {srv0.local(), srv1.local()};
    qn::ingest_client client(copt);
    client.connect();

    // In-process reference running the identical schedule (same tokens,
    // same ids, same seeds, same drain barriers).
    service::router_options ropt;
    ropt.shards = 2;
    ropt.shard.threads = 1;
    service::plan_cache ref_cache;
    service::shard_router ref(ropt, &ref_cache);

    struct member {
        physio::rr_record rec;
        std::string token;
        std::uint64_t id = 0;
    };
    std::vector<member> cohort;
    cohort.reserve(n_patients);
    for (unsigned i = 0; i < n_patients; ++i) {
        const auto patient = physio::make_patient(
            i % 2 ? physio::cohort::healthy : physio::cohort::sinus_arrhythmia,
            i % 64);
        member m{physio::record_for(patient, record_seconds),
                 i % 2 ? std::string("governed") : std::string("plain")};
        cohort.push_back(std::move(m));
    }

    const auto t0 = clock_type::now();
    bool schedule_identical = true;
    for (unsigned i = 0; i < n_patients; ++i) {
        auto& m = cohort[i];
        const std::string pid = "transport-" + std::to_string(i);
        m.id = client.add_session(pid, m.token);
        const auto rid = ref.add_session(transport_config(m.token, pid));
        schedule_identical = schedule_identical && m.id == rid &&
                             client.shard_of(m.id) == ref.shard_of(rid);
        r.beats += m.rec.beats();
    }

    // Phase 1: half of every record, then a drain barrier on both sides.
    for (auto& m : cohort)
        for (std::size_t i = 0; i < m.rec.beats() / 2; ++i) {
            client.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
            ref.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
        }
    client.flush();
    ref.drain_all();

    // Live migration of a governed session over the socket, mirrored in
    // the reference (mid-stream, mid-governor-dwell).
    const std::uint64_t moving = cohort[1].id;  // governed
    const std::size_t target = 1 - client.shard_of(moving);
    client.migrate(moving, target);
    ref.migrate_session(moving, target);

    // Phase 2: the rest, drain barrier again.
    for (auto& m : cohort)
        for (std::size_t i = m.rec.beats() / 2; i < m.rec.beats(); ++i) {
            client.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
            ref.ingest(m.id, m.rec.beat_time_s[i], m.rec.rr_s[i]);
        }
    client.flush();
    ref.drain_all();
    const auto t1 = clock_type::now();

    // Final synchronous publish, then wait for the aggregator to hold
    // both shards' post-drain snapshots (cadence publishes may still be
    // in flight; snapshots are whole-state, so the last one wins).
    pub0.publish_now();
    pub1.publish_now();
    const service::fleet_snapshot want = analysis_view(ref.fleet());
    const auto deadline = clock_type::now() + std::chrono::seconds(10);
    bool agg_identical = false;
    while (clock_type::now() < deadline) {
        if (agg.shards_reporting() == 2 &&
            analysis_view(agg.merged()) == want) {
            agg_identical = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        pub0.publish_now();
        pub1.publish_now();
    }
    r.merge_identical = schedule_identical && agg_identical &&
                        analysis_view(client.merged_stats()) == want;

    // Migration bar: the moved session's spectra and switch log match
    // the reference's and an unmigrated solo run with the same derived
    // seed -- migration left no computational trace.
    const qn::session_report moved = client.query_session(moving);
    service::service_options solo_opt;
    solo_opt.threads = 1;
    service::plan_cache solo_cache;
    service::session_manager solo(solo_opt, &solo_cache);
    auto solo_cfg = transport_config(cohort[1].token, "ignored");
    solo_cfg.patient_id = ref.at(moving).patient_id();
    solo_cfg.seed = util::derive_stream_seed(copt.base_seed, moving);
    const auto solo_id = solo.add_session(std::move(solo_cfg));
    for (std::size_t i = 0; i < cohort[1].rec.beats(); ++i)
        solo.ingest(solo_id, cohort[1].rec.beat_time_s[i],
                    cohort[1].rec.rr_s[i]);
    solo.drain_all();
    r.migration_identical = moved.found && client.migrations() == 1;
    for (const auto* side : {&ref.at(moving), &solo.at(solo_id)}) {
        const auto want_reports = side->reports();
        const auto want_log = side->switch_log();
        if (moved.reports.size() != want_reports.size() ||
            moved.switch_log.size() != want_log.size()) {
            r.migration_identical = false;
            break;
        }
        for (std::size_t i = 0; i < want_reports.size(); ++i)
            if (moved.reports[i].bands.lf != want_reports[i].bands.lf ||
                moved.reports[i].bands.hf != want_reports[i].bands.hf ||
                moved.reports[i].bands.total != want_reports[i].bands.total ||
                moved.reports[i].ops != want_reports[i].ops)
                r.migration_identical = false;
        for (std::size_t i = 0; i < want_log.size(); ++i)
            if (!(moved.switch_log[i] == want_log[i]))
                r.migration_identical = false;
    }
    // A governed record long enough to switch modes makes the switch-log
    // comparison non-vacuous.
    if (moved.switch_log.empty()) r.migration_identical = false;

    r.windows = want.windows;
    r.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            t1 - t0)
            .count();
    r.beats_per_s = static_cast<double>(r.beats) / (r.wall_ms / 1000.0);
    r.snapshots_published =
        pub0.snapshots_published() + pub1.snapshots_published();
    r.snapshots_per_s =
        static_cast<double>(r.snapshots_published) / (r.wall_ms / 1000.0);
    r.wire_bytes_sent =
        client.bytes_sent() + pub0.bytes_sent() + pub1.bytes_sent();
    r.wire_bytes_received = agg.bytes_received();
    r.wire_bytes_per_beat =
        r.beats > 0
            ? static_cast<double>(client.bytes_sent()) /
                  static_cast<double>(r.beats)
            : 0.0;

    client.close();
    pub0.stop();
    pub1.stop();
    srv0.stop();
    srv1.stop();
    agg.stop();
    return r;
}

// ---------------------------------------------------------- SIMD probe

/// In-process scalar-vs-dispatched A/B of the vector kernel layer: the
/// ISA the dispatcher chose, the batched lane width, and per-kernel
/// wall-clock speedups (same inputs, outputs verified bit-identical).
struct simd_probe {
    std::string isa_chosen;
    std::size_t batched_lane_width = 1;
    double split_radix_speedup = 1.0;
    double wavelet_speedup = 1.0;
    double lifting_speedup = 1.0;
    double batched_fft_speedup = 1.0;  ///< lane-batched vs W sequential
    bool identical = true;
};

template <typename F>
double time_best_of_ms(F&& body, int reps, int iters) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = clock_type::now();
        for (int i = 0; i < iters; ++i) body();
        const auto t1 = clock_type::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return best;
}

simd_probe run_simd_probe() {
    simd_probe p;
    const simd::isa native = simd::active_isa();
    p.isa_chosen = simd::isa_name(native);
    p.batched_lane_width = simd::kernels().lanes;

    util::rng r(1234);
    const std::size_t n = 512;
    std::vector<cplx> sig(n);
    for (auto& v : sig) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    std::vector<real> lane(n);
    for (auto& v : lane) v = r.uniform(-1, 1);

    const dsp::fft_split_radix fft(n);
    const wfft::wavelet_fft wfft_haar(wfft::plan::exact(n, wavelet::basis::haar));
    std::vector<cplx> out(n), ref(n);
    std::vector<real> a(n / 2), d(n / 2), a_ref(n / 2), d_ref(n / 2);

    constexpr int reps = 5, iters = 400;
    const auto ab = [&](auto&& body) {
        simd::set_active_isa(simd::isa::scalar);
        const double scalar_ms = time_best_of_ms(body, reps, iters);
        simd::set_active_isa(native);
        const double native_ms = time_best_of_ms(body, reps, iters);
        return native_ms > 0.0 ? scalar_ms / native_ms : 1.0;
    };

    p.split_radix_speedup = ab([&] { fft.forward(sig, out); });
    simd::set_active_isa(simd::isa::scalar);
    fft.forward(sig, ref);
    simd::set_active_isa(native);
    fft.forward(sig, out);
    p.identical = p.identical &&
                  std::memcmp(ref.data(), out.data(), n * sizeof(cplx)) == 0;

    p.wavelet_speedup = ab([&] { wfft_haar.forward(sig, out); });
    p.lifting_speedup = ab([&] {
        wavelet::dwt_level(std::span<const real>(lane), wavelet::basis::db2,
                           a, d);
    });
    simd::set_active_isa(simd::isa::scalar);
    wavelet::dwt_level(std::span<const real>(lane), wavelet::basis::db2,
                       a_ref, d_ref);
    simd::set_active_isa(native);
    wavelet::dwt_level(std::span<const real>(lane), wavelet::basis::db2, a, d);
    p.identical = p.identical && a == a_ref && d == d_ref;

    // Lane-batched multi-window FFT vs the same W windows sequentially,
    // both on the native ISA.
    const std::size_t w = std::max<std::size_t>(2, p.batched_lane_width);
    std::vector<std::vector<cplx>> ins, outs(w), seq(w);
    std::vector<const cplx*> in_ptrs;
    std::vector<cplx*> out_ptrs;
    for (std::size_t i = 0; i < w; ++i) {
        ins.push_back(sig);
        for (auto& v : ins.back())
            v += cplx{r.uniform(-0.1, 0.1), r.uniform(-0.1, 0.1)};
        outs[i].resize(n);
        seq[i].resize(n);
        in_ptrs.push_back(ins[i].data());
        out_ptrs.push_back(outs[i].data());
    }
    util::arena scratch;
    const double seq_ms = time_best_of_ms(
        [&] {
            for (std::size_t i = 0; i < w; ++i) fft.forward(ins[i], seq[i]);
        },
        reps, iters / 2);
    const double bat_ms = time_best_of_ms(
        [&] { fft.forward_batched(in_ptrs, out_ptrs, scratch); }, reps,
        iters / 2);
    p.batched_fft_speedup = bat_ms > 0.0 ? seq_ms / bat_ms : 1.0;
    for (std::size_t i = 0; i < w; ++i)
        p.identical = p.identical &&
                      std::memcmp(seq[i].data(), outs[i].data(),
                                  n * sizeof(cplx)) == 0;
    return p;
}

/// Crude field scraper for the committed BENCH_service.json: finds the
/// fleet object for `patients` and pulls two numeric fields.  Tolerant of
/// missing files/fields (returns found = false / -1).
baseline_fleet read_baseline(const std::string& path, unsigned patients) {
    baseline_fleet b;
    std::ifstream in(path);
    if (!in) return b;
    std::string line;
    const std::string tag = "\"patients\": " + std::to_string(patients) + ",";
    const auto field = [](const std::string& s, const std::string& key) {
        const auto pos = s.find("\"" + key + "\": ");
        if (pos == std::string::npos) return -1.0;
        return std::atof(s.c_str() + pos + key.size() + 4);
    };
    while (std::getline(in, line)) {
        if (line.find(tag) == std::string::npos) continue;
        b.found = true;
        b.windows_per_s = field(line, "windows_per_s");
        b.allocs_per_window = field(line, "allocs_per_window");
        return b;
    }
    return b;
}

}  // namespace

int main() {
    util::print_section(std::cout,
                        "Service throughput -- concurrent multi-patient HRV "
                        "analysis over the shared plan cache");

    const simd_probe sp = run_simd_probe();
    std::cout << "simd: " << sp.isa_chosen << " (batched lane width "
              << sp.batched_lane_width << "); speedup vs scalar: split-radix "
              << util::table::fmt(sp.split_radix_speedup, 2) << "x, wavelet "
              << util::table::fmt(sp.wavelet_speedup, 2) << "x, db2 lifting "
              << util::table::fmt(sp.lifting_speedup, 2)
              << "x; lane-batched FFT vs sequential "
              << util::table::fmt(sp.batched_fft_speedup, 2) << "x; outputs "
              << (sp.identical ? "bit-identical" : "MISMATCH") << "\n";

    const real record_seconds = 300.0;
    const unsigned fleets[] = {1, 8, 64, 512};

    // Snapshot the committed baseline before this run overwrites the file.
    std::vector<baseline_fleet> baselines;
    for (const unsigned n : fleets)
        baselines.push_back(read_baseline("BENCH_service.json", n));

    util::table tab({"patients", "beats", "windows", "wall ms", "sessions/s",
                     "windows/s", "beats/s", "allocs/win", "cache hit",
                     "engines", "max|diff|", "E nominal (mJ)", "E vfs (mJ)"});
    std::vector<fleet_result> results;
    for (std::size_t fi = 0; fi < std::size(fleets); ++fi) {
        const unsigned n = fleets[fi];
        const auto r = run_fleet(n, record_seconds);
        results.push_back(r);
        tab.add_row({util::table::fmt_int(r.patients),
                     util::table::fmt_int(static_cast<long long>(r.beats)),
                     util::table::fmt_int(static_cast<long long>(r.windows)),
                     util::table::fmt(r.wall_ms, 1),
                     util::table::fmt(r.sessions_per_s, 1),
                     util::table::fmt(r.windows_per_s, 1),
                     util::table::fmt(r.beats_per_s, 0),
                     util::table::fmt(r.allocs_per_window, 3),
                     util::table::fmt_pct(r.cache_hit_rate),
                     util::table::fmt_int(static_cast<long long>(r.cache_entries)),
                     util::table::fmt(r.max_abs_diff, 12),
                     util::table::fmt(r.energy_nominal_j * 1e3, 3),
                     util::table::fmt(r.energy_vfs_j * 1e3, 3)});
    }
    tab.print(std::cout);

    bool all_identical = sp.identical;
    for (const auto& r : results) all_identical = all_identical && r.identical;
    std::cout << "\nverification: "
              << (all_identical ? "all sessions bit-identical to serial runs"
                                : "MISMATCH vs serial runs")
              << "\n";

    // Before/after against the committed baseline (windows/s is the
    // throughput trajectory; allocs/window is the zero-allocation budget).
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        const auto& b = baselines[i];
        if (!b.found) continue;
        std::cout << "fleet " << r.patients << ": windows/s "
                  << b.windows_per_s << " -> " << r.windows_per_s;
        if (b.allocs_per_window >= 0.0)
            std::cout << ", allocs/window " << b.allocs_per_window << " -> "
                      << r.allocs_per_window;
        else
            std::cout << ", allocs/window (unmeasured) -> "
                      << r.allocs_per_window;
        std::cout << "\n";
    }

    // Per-engine-kind split of the largest fleet (the mixed-engine
    // roll-up the service reports for capacity planning).
    {
        const auto& big = results.back();
        std::cout << "engine mix (" << big.patients << " patients): ";
        bool first = true;
        for (std::size_t i = 0; i < big.by_engine.size(); ++i) {
            if (big.by_engine[i].windows == 0) continue;
            if (!first) std::cout << ", ";
            std::cout << qpsa::core::engine_class_name(
                             static_cast<qpsa::core::engine_class>(i))
                      << "=" << big.by_engine[i].windows;
            first = false;
        }
        std::cout << " windows; dropped beats: " << big.beats_dropped << "\n";
    }

    // Battery-drain scenario: the largest fleet again, now governed -- the
    // closed QDES loop degrades every node double -> Q15 -> pruned as its
    // simulated charge falls.
    util::print_section(std::cout,
                        "Adaptive QDES -- governed 512-patient fleet under "
                        "battery drain");
    const auto governed = run_governed_fleet(512, record_seconds * 2);
    {
        std::cout << "mode switches: " << governed.mode_switches << " across "
                  << governed.patients << " patients ("
                  << (governed.ladder_complete
                          ? "every session walked double->Q15->pruned"
                          : "INCOMPLETE ladder walks")
                  << ")\n"
                  << "windows: " << governed.windows << " ("
                  << util::table::fmt(governed.windows_per_s, 1)
                  << "/s), allocs/window "
                  << util::table::fmt(governed.allocs_per_window, 3)
                  << ", min battery fraction "
                  << util::table::fmt(governed.battery_fraction_min, 3) << "\n"
                  << "governed engine mix: ";
        bool first = true;
        for (std::size_t i = 0; i < governed.by_engine.size(); ++i) {
            if (governed.by_engine[i].windows == 0) continue;
            if (!first) std::cout << ", ";
            std::cout << qpsa::core::engine_class_name(
                             static_cast<qpsa::core::engine_class>(i))
                      << "=" << governed.by_engine[i].windows;
            first = false;
        }
        std::cout << " windows\n";
    }
    all_identical = all_identical && governed.ladder_complete;

    // Sharded fleet: the same 512-patient cohort behind the consistent-
    // hash shard router at K = 1/2/4/8, merged through fleet_snapshot
    // (and through its wire format) -- the scale-out topology must hold
    // the exact determinism bar of the serial engine.
    util::print_section(std::cout,
                        "Sharded fleet -- 512 patients across K "
                        "session_manager shards (consistent-hash router)");
    const auto cohort = make_shard_cohort(512, record_seconds);
    const unsigned shard_counts[] = {1, 2, 4, 8};
    std::vector<shard_result> sharded;
    util::table stab({"shards", "windows", "wall ms", "windows/s",
                      "allocs/win", "cache hit", "min shard w/s",
                      "max shard w/s", "identical", "wire ok"});
    for (const unsigned k : shard_counts) {
        const auto r = run_sharded_fleet(cohort, k);
        sharded.push_back(r);
        const auto [mn, mx] =
            std::minmax_element(r.per_shard_windows_per_s.begin(),
                                r.per_shard_windows_per_s.end());
        stab.add_row({util::table::fmt_int(r.shards),
                      util::table::fmt_int(static_cast<long long>(r.windows)),
                      util::table::fmt(r.wall_ms, 1),
                      util::table::fmt(r.windows_per_s, 1),
                      util::table::fmt(r.allocs_per_window, 3),
                      util::table::fmt_pct(r.cache_hit_rate),
                      util::table::fmt(*mn, 1), util::table::fmt(*mx, 1),
                      r.identical ? "yes" : "NO",
                      r.wire_roundtrip_identical ? "yes" : "NO"});
        all_identical =
            all_identical && r.identical && r.wire_roundtrip_identical;
    }
    stab.print(std::cout);
    std::cout << "verification: merged sharded fleets "
              << "bit-identical to serial baseline, wire round trip "
              << "lossless (see flags above)\n";

    // Durable journal: the same cohort behind a 2-shard router with the
    // append-only report log attached, vs an identical unjournaled run.
    util::print_section(std::cout,
                        "Durable journal -- 512 patients, K = 2 shards, "
                        "append-only log + crash-recovery rebuild + replay");
    const auto jr = run_journaled_fleet(cohort);
    std::cout << "windows/s: " << util::table::fmt(jr.unjournaled_windows_per_s, 1)
              << " unjournaled -> " << util::table::fmt(jr.windows_per_s, 1)
              << " journaled (cpu-time ratio "
              << util::table::fmt(jr.throughput_ratio, 3) << "), close+fsync "
              << util::table::fmt(jr.close_ms, 1) << " ms\n"
              << "journal: " << jr.journal_appends << " records, "
              << jr.journal_bytes << " bytes ("
              << util::table::fmt(jr.bytes_per_window, 1)
              << " bytes/window), " << jr.journal_fsyncs << " fsyncs\n"
              << "recovery: rebuild "
              << (jr.rebuild_identical ? "bit-identical" : "MISMATCH")
              << ", same-spec replay "
              << (jr.replay_identical ? "bit-identical" : "MISMATCH") << "\n";
    all_identical =
        all_identical && jr.rebuild_identical && jr.replay_identical;

    // Vendor-FFT A/B (opt-in CI job; a row records absence otherwise).
    const auto fftw = run_fftw_ab(64, record_seconds);
    if (fftw.available) {
        util::print_section(std::cout,
                            "FFTW3 -- vendor mesh transform vs split-radix "
                            "reference (64 patients)");
        std::cout << "cpu time: " << util::table::fmt(fftw.cpu_ms_split_radix, 1)
                  << " ms split-radix -> " << util::table::fmt(fftw.cpu_ms_fftw, 1)
                  << " ms fftw (" << util::table::fmt(fftw.speedup, 2)
                  << "x), max relative band deviation "
                  << util::table::fmt(fftw.max_rel_diff, 12) << " ("
                  << (fftw.agrees ? "within 1e-9" : "EXCEEDS 1e-9") << ")\n";
        all_identical = all_identical && fftw.agrees;
    } else {
        std::cout << "\nfftw: not built (find_package(FFTW3) found nothing; "
                     "the opt-in CI job installs libfftw3-dev)\n";
    }

    // Cross-process transport: the fleet behind qpsa::net's three-tier
    // topology (front-end -> 2 shard servers -> aggregator) over unix
    // sockets, with one live socket migration mid-stream.
    util::print_section(std::cout,
                        "Transport -- ingest client + 2 socket shards + "
                        "snapshot aggregator, live migration over the wire");
    const auto tr = run_transport_fleet(32, record_seconds * 2);
    std::cout << "patients: " << tr.patients << " across " << tr.shards
              << " socket shards; " << tr.beats << " beats ("
              << util::table::fmt(tr.beats_per_s, 0) << "/s over the wire), "
              << tr.windows << " windows\n"
              << "snapshots: " << tr.snapshots_published << " published ("
              << util::table::fmt(tr.snapshots_per_s, 1) << "/s)\n"
              << "wire: " << tr.wire_bytes_sent << " bytes sent ("
              << util::table::fmt(tr.wire_bytes_per_beat, 1)
              << " ingest bytes/beat), " << tr.wire_bytes_received
              << " bytes into the aggregator\n"
              << "verification: merged snapshot "
              << (tr.merge_identical ? "bit-identical" : "MISMATCH")
              << " vs in-process router, migrated session "
              << (tr.migration_identical ? "bit-identical" : "MISMATCH")
              << " vs unmigrated run\n";
    all_identical =
        all_identical && tr.merge_identical && tr.migration_identical;

    std::ofstream json("BENCH_service.json");
    json << "{\n  \"bench\": \"service_throughput\",\n  \"record_seconds\": "
         << record_seconds << ",\n  \"workers\": " << results.front().workers
         << ",\n  \"simd\": {\"isa\": \"" << sp.isa_chosen
         << "\", \"batched_lane_width\": " << sp.batched_lane_width
         << ", \"split_radix_speedup\": " << sp.split_radix_speedup
         << ", \"wavelet_speedup\": " << sp.wavelet_speedup
         << ", \"lifting_speedup\": " << sp.lifting_speedup
         << ", \"batched_fft_speedup\": " << sp.batched_fft_speedup
         << ", \"identical\": " << (sp.identical ? "true" : "false")
         << "},\n  \"fleets\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json << "    {\"patients\": " << r.patients << ", \"beats\": " << r.beats
             << ", \"windows\": " << r.windows << ", \"wall_ms\": " << r.wall_ms
             << ", \"sessions_per_s\": " << r.sessions_per_s
             << ", \"windows_per_s\": " << r.windows_per_s
             << ", \"beats_per_s\": " << r.beats_per_s
             << ", \"allocs_per_window\": " << r.allocs_per_window
             << ", \"measured_windows\": " << r.measured_windows
             << ", \"cache_hit_rate\": " << r.cache_hit_rate
             << ", \"cache_hit_rate_warm\": " << r.cache_hit_rate_warm
             << ", \"cache_entries\": " << r.cache_entries
             << ", \"max_abs_diff\": " << r.max_abs_diff
             << ", \"identical\": " << (r.identical ? "true" : "false")
             << ", \"energy_nominal_j\": " << r.energy_nominal_j
             << ", \"energy_vfs_j\": " << r.energy_vfs_j
             << ", \"arrhythmia_fraction\": " << r.arrhythmia_fraction
             << ", \"beats_dropped\": " << r.beats_dropped
             << ", \"mode_switches\": " << r.mode_switches
             << ", \"engine_windows\": {";
        bool first = true;
        for (std::size_t e = 0; e < r.by_engine.size(); ++e) {
            if (r.by_engine[e].windows == 0) continue;
            if (!first) json << ", ";
            json << "\""
                 << qpsa::core::engine_class_name(
                        static_cast<qpsa::core::engine_class>(e))
                 << "\": " << r.by_engine[e].windows;
            first = false;
        }
        json << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"sharded\": [\n";
    for (std::size_t i = 0; i < sharded.size(); ++i) {
        const auto& r = sharded[i];
        json << "    {\"shards\": " << r.shards
             << ", \"patients\": " << r.patients
             << ", \"windows\": " << r.windows
             << ", \"wall_ms\": " << r.wall_ms
             << ", \"windows_per_s\": " << r.windows_per_s
             << ", \"allocs_per_window\": " << r.allocs_per_window
             << ", \"measured_windows\": " << r.measured_windows
             << ", \"cache_hit_rate\": " << r.cache_hit_rate
             << ", \"identical\": " << (r.identical ? "true" : "false")
             << ", \"wire_roundtrip_identical\": "
             << (r.wire_roundtrip_identical ? "true" : "false")
             << ", \"per_shard_windows\": [";
        for (std::size_t k = 0; k < r.per_shard_windows.size(); ++k)
            json << (k ? ", " : "") << r.per_shard_windows[k];
        json << "], \"per_shard_windows_per_s\": [";
        for (std::size_t k = 0; k < r.per_shard_windows_per_s.size(); ++k)
            json << (k ? ", " : "") << r.per_shard_windows_per_s[k];
        json << "]}" << (i + 1 < sharded.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"journal\": {\"patients\": " << jr.patients
         << ", \"shards\": 2"
         << ", \"windows\": " << jr.windows
         << ", \"wall_ms\": " << jr.wall_ms
         << ", \"close_ms\": " << jr.close_ms
         << ", \"windows_per_s\": " << jr.windows_per_s
         << ", \"unjournaled_windows_per_s\": " << jr.unjournaled_windows_per_s
         << ", \"throughput_ratio\": " << jr.throughput_ratio
         << ", \"journal_appends\": " << jr.journal_appends
         << ", \"journal_bytes\": " << jr.journal_bytes
         << ", \"journal_fsyncs\": " << jr.journal_fsyncs
         << ", \"bytes_per_window\": " << jr.bytes_per_window
         << ", \"rebuild_identical\": "
         << (jr.rebuild_identical ? "true" : "false")
         << ", \"replay_identical\": "
         << (jr.replay_identical ? "true" : "false") << "},\n";
    json << "  \"fftw\": {\"available\": "
         << (fftw.available ? "true" : "false");
    if (fftw.available)
        json << ", \"patients\": " << fftw.patients
             << ", \"windows\": " << fftw.windows
             << ", \"cpu_ms_split_radix\": " << fftw.cpu_ms_split_radix
             << ", \"cpu_ms_fftw\": " << fftw.cpu_ms_fftw
             << ", \"speedup\": " << fftw.speedup
             << ", \"max_rel_diff\": " << fftw.max_rel_diff
             << ", \"agrees\": " << (fftw.agrees ? "true" : "false");
    json << "},\n";
    json << "  \"transport\": {\"patients\": " << tr.patients
         << ", \"shards\": " << tr.shards
         << ", \"beats\": " << tr.beats
         << ", \"windows\": " << tr.windows
         << ", \"wall_ms\": " << tr.wall_ms
         << ", \"beats_per_s\": " << tr.beats_per_s
         << ", \"snapshots_published\": " << tr.snapshots_published
         << ", \"snapshots_per_s\": " << tr.snapshots_per_s
         << ", \"wire_bytes_sent\": " << tr.wire_bytes_sent
         << ", \"wire_bytes_received\": " << tr.wire_bytes_received
         << ", \"wire_bytes_per_beat\": " << tr.wire_bytes_per_beat
         << ", \"merge_identical\": "
         << (tr.merge_identical ? "true" : "false")
         << ", \"migration_identical\": "
         << (tr.migration_identical ? "true" : "false") << "},\n";
    json << "  \"governed\": {\"patients\": " << governed.patients
         << ", \"windows\": " << governed.windows
         << ", \"mode_switches\": " << governed.mode_switches
         << ", \"ladder_complete\": "
         << (governed.ladder_complete ? "true" : "false")
         << ", \"wall_ms\": " << governed.wall_ms
         << ", \"windows_per_s\": " << governed.windows_per_s
         << ", \"allocs_per_window\": " << governed.allocs_per_window
         << ", \"measured_windows\": " << governed.measured_windows
         << ", \"battery_fraction_min\": " << governed.battery_fraction_min
         << ", \"engine_windows\": {";
    {
        bool first = true;
        for (std::size_t e = 0; e < governed.by_engine.size(); ++e) {
            if (governed.by_engine[e].windows == 0) continue;
            if (!first) json << ", ";
            json << "\""
                 << qpsa::core::engine_class_name(
                        static_cast<qpsa::core::engine_class>(e))
                 << "\": " << governed.by_engine[e].windows;
            first = false;
        }
    }
    json << "}}\n}\n";
    std::cout << "wrote BENCH_service.json\n";

    return all_identical ? 0 : 1;
}
