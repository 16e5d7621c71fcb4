#include "ledger.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "qpsa/journal/report_reader.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// The fleet under test: one session_manager, or a shard_router when the
/// workload shards or journals.  Owns a fresh plan_cache, so every setup
/// pays its cold plan builds.
class fleet_handle {
public:
    fleet_handle(const workload& w, const std::string& journal_dir) {
        if (w.shards > 1 || w.journal) {
            service::router_options opt;
            opt.shards = w.shards;
            opt.shard.threads = w.workers;
            opt.shard.vfs_deadline_s = w.monitor.hop_seconds;
            opt.journal_dir = journal_dir;
            opt.journal.fsync_interval_bytes = 0;  // syncs only on close
            router_ = std::make_unique<service::shard_router>(opt, &cache_);
        } else {
            service::service_options opt;
            opt.threads = w.workers;
            opt.vfs_deadline_s = w.monitor.hop_seconds;
            mgr_ = std::make_unique<service::session_manager>(opt, &cache_);
        }
        for (const session_plan& p : w.sessions) {
            service::session_config cfg;
            cfg.patient_id = p.patient_id;
            cfg.analysis = p.analysis;
            cfg.monitor = w.monitor;
            cfg.quality = p.quality;
            cfg.battery = p.battery;
            cfg.ingest_capacity = 1024;
            cfg.keep_reports = true;  // the correctness gate reads them
            if (router_)
                router_->add_session(std::move(cfg));
            else
                mgr_->add_session(std::move(cfg));
        }
    }

    bool ingest(std::size_t id, real t, real rr) noexcept {
        return router_ ? router_->ingest(id, t, rr) : mgr_->ingest(id, t, rr);
    }
    std::size_t pump() { return router_ ? router_->pump() : mgr_->pump(); }
    std::size_t drain_all() {
        return router_ ? router_->drain_all() : mgr_->drain_all();
    }
    const service::session& at(std::size_t id) const {
        return router_ ? router_->at(id) : mgr_->at(id);
    }
    std::size_t shard_count() const { return router_ ? router_->shard_count() : 1; }
    service::fleet_snapshot shard_fleet(std::size_t k) const {
        return router_ ? router_->shard_fleet(k) : mgr_->fleet();
    }
    service::fleet_snapshot fleet() const {
        return router_ ? router_->fleet() : mgr_->fleet();
    }
    service::plan_cache_stats cache_stats() const { return cache_.stats(); }
    void close_journals() {
        if (router_) router_->close_journals();
    }

private:
    service::plan_cache cache_;  // declared first: outlives the fleet
    std::unique_ptr<service::shard_router> router_;
    std::unique_ptr<service::session_manager> mgr_;
};

/// Mirrors the monitor's window grid for one session, so the feeder knows
/// which delivered beat closed each window (the first beat at or past
/// t_end) and when that beat was due.
class closing_tracker {
public:
    closing_tracker() { q_.reserve(16); }

    void on_beat(real t, std::int64_t due, const core::monitor_options& m,
                 bool aligned) {
        if (!started_) {
            started_ = true;
            w0_ = aligned ? std::floor(t / m.hop_seconds) * m.hop_seconds : t;
        }
        while (t >= w0_ + m.window_seconds) {
            q_.push_back({w0_ + m.window_seconds, due});
            w0_ += m.hop_seconds;
        }
    }

    /// Due time of the beat that closed the window ending at t_end
    /// (windows the monitor skipped are passed over).
    bool match(real t_end, std::int64_t& due) {
        while (head_ < q_.size()) {
            const entry e = q_[head_];
            if (e.t_end > t_end) return false;
            ++head_;
            if (e.t_end == t_end) {
                due = e.due;
                compact();
                return true;
            }
        }
        return false;
    }

private:
    struct entry {
        real t_end;
        std::int64_t due;
    };
    void compact() {
        if (head_ == q_.size()) {
            q_.clear();
            head_ = 0;
        } else if (head_ > 8 && head_ > q_.size() / 2) {
            q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    bool started_ = false;
    real w0_ = 0.0;
    std::vector<entry> q_;
    std::size_t head_ = 0;
};

/// Windows completed per ledger kind, from each session's initial config,
/// its switch log and its window count.
std::array<std::uint64_t, kKindSlots> kind_windows(const workload& w,
                                                    const fleet_handle& f) {
    std::array<std::uint64_t, kKindSlots> out{};
    for (std::size_t i = 0; i < w.sessions.size(); ++i) {
        const session_plan& p = w.sessions[i];
        const service::session& s = f.at(i);
        core::quality_governor gov(p.quality);
        std::size_t cur =
            kind_slot(kind_name(gov.initial_config(p.analysis).value_or(p.analysis)));
        std::uint64_t last = 0;
        for (const service::mode_switch_event& ev : s.switch_log()) {
            out[cur] += ev.window_index - last;
            last = ev.window_index;
            cur = kind_slot(kind_name(
                p.quality.controller->profiles()[ev.mode_index].apply_to(p.analysis)));
        }
        out[cur] += s.windows_completed() - last;
    }
    return out;
}

std::uint64_t fleet_windows(const fleet_handle& f, std::size_t n) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += f.at(i).windows_completed();
    return total;
}

/// Progress of the measured phase, sampled after every pump pass.
struct progress_point {
    std::int64_t t_ns = 0;
    double cpu_us = 0.0;
    std::uint64_t windows = 0;  ///< completed by measured passes so far
};

/// What one phase (warm-up + measured steady state) observed.
struct phase_stats {
    std::unique_ptr<fleet_handle> fleet;
    std::vector<std::uint64_t> delivered;  ///< beats accepted per session
    std::size_t measured_rounds = 0;       ///< closed loop
    std::uint64_t windows = 0;             ///< completed in the measured phase
    std::uint64_t allocs = 0;
    sliced_latency report_latency;
    sliced_latency ingest_lag;
    double heap_bytes_at_start = 0.0;  ///< after set-up and warm-up
    std::uint64_t refused = 0;    ///< open loop: beats a full ring refused
    std::uint64_t unmatched = 0;  ///< reports with no predicted closing beat
    std::vector<progress_point> progress;  ///< measured passes, from t0

    // Traced extras (measured phase only).
    std::vector<double> pump_ms;
    double pump_cpu_us = 0.0;
    double pump_wall_us = 0.0;
    double ingest_ns = 0.0;
    std::uint64_t ingest_beats = 0;
    std::vector<double> snapshot_us;
    std::vector<double> serialize_us;
    std::vector<double> wire_bytes;
    std::array<std::uint64_t, kKindSlots> kind_windows_at_start{};
};

/// Per-session closing trackers plus the reports already seen: turns the
/// reports a pump made visible into report-latency samples.
class report_watch {
public:
    explicit report_watch(std::size_t n) : trackers_(n), seen_(n, 0) {}

    closing_tracker& tracker(std::size_t i) { return trackers_[i]; }

    /// Session i's reports that became visible at t_ret; windows whose
    /// closing beat fell due before t0 (warm-up) are not sampled.
    void collect(const fleet_handle& f, std::size_t i, std::int64_t t_ret,
                 std::int64_t t0, phase_stats& ps) {
        const auto reps = f.at(i).reports();
        for (; seen_[i] < reps.size(); ++seen_[i]) {
            std::int64_t due = 0;
            if (trackers_[i].match(reps[seen_[i]].t_end, due)) {
                if (due >= t0) ps.report_latency.add(due, t_ret - due);
            } else {
                ++ps.unmatched;
            }
        }
    }

private:
    std::vector<closing_tracker> trackers_;
    std::vector<std::size_t> seen_;
};

/// Start of the measured phase: progress and latency slices count from here.
void start_measuring(phase_stats& ps, std::int64_t t0, double seconds) {
    ps.progress.reserve(1 << 16);
    ps.progress.push_back({t0, process_cpu_us(), 0});
    ps.report_latency.start(t0, seconds);
    ps.ingest_lag.start(t0, seconds);
}

/// One pump pass.  Measured passes append a progress point; traced ones are
/// also timed (wall and process CPU) and recorded as the parent span of
/// the engine calls they make.
void pump_pass(fleet_handle& f, phase_stats& ps, bool measure, bool traced) {
    if (!measure) {
        f.pump();
        return;
    }
    std::size_t done = 0;
    if (traced) {
        tracer& tr = tracer::instance();
        const std::uint64_t id = tr.next_span_id();
        tr.set_parent(id);
        const std::int64_t a = now_ns();
        const double c = process_cpu_us();
        done = f.pump();
        const std::int64_t b = now_ns();
        ps.pump_cpu_us += process_cpu_us() - c;
        ps.pump_wall_us += static_cast<double>(b - a) / 1e3;
        ps.pump_ms.push_back(static_cast<double>(b - a) / 1e6);
        tr.record({id, 0, "service.pump", "", a, b});
        tr.set_parent(0);
    } else {
        done = f.pump();
    }
    ps.progress.push_back(
        {now_ns(), process_cpu_us(), ps.progress.back().windows + done});
}

/// Read and serialize every shard's snapshot, as a snapshot publisher
/// would; `record` keeps the timings and wire sizes.
void snapshot_shards(const fleet_handle& f, phase_stats& ps, bool record) {
    for (std::size_t k = 0; k < f.shard_count(); ++k) {
        const std::int64_t a = now_ns();
        const service::fleet_snapshot snap = f.shard_fleet(k);
        const std::int64_t b = now_ns();
        const std::vector<std::uint8_t> bytes = snap.serialize();
        const std::int64_t c = now_ns();
        if (record) {
            ps.snapshot_us.push_back(static_cast<double>(b - a) / 1e3);
            ps.serialize_us.push_back(static_cast<double>(c - b) / 1e3);
            ps.wire_bytes.push_back(static_cast<double>(bytes.size()));
        }
    }
}

/// Median over 20 equal time slices of the measured phase of each slice's
/// windows/s and CPU us/window: a burst of load on a shared host moves one
/// slice, not the figure.
void slice_rates(const phase_stats& ps, double& windows_per_s,
                 double& cpu_us_per_window) {
    constexpr std::size_t kSlices = 20;
    const std::vector<progress_point>& p = ps.progress;
    std::vector<double> wps, cpw;
    if (p.size() >= 2) {
        const double span = static_cast<double>(p.back().t_ns - p.front().t_ns);
        std::size_t prev = 0, j = 0;
        for (std::size_t k = 1; k <= kSlices; ++k) {
            const double edge = static_cast<double>(p.front().t_ns) +
                                span * static_cast<double>(k) / kSlices;
            while (j + 1 < p.size() && static_cast<double>(p[j + 1].t_ns) <= edge) ++j;
            const double dw = static_cast<double>(p[j].windows - p[prev].windows);
            if (dw > 0.0) {
                wps.push_back(dw * 1e9 / static_cast<double>(p[j].t_ns - p[prev].t_ns));
                cpw.push_back((p[j].cpu_us - p[prev].cpu_us) / dw);
                prev = j;
            }
        }
    }
    windows_per_s = median(wps);
    cpu_us_per_window = median(cpw);
}

/// Closed loop: ingest `chunk` beats for every patient, pump, repeat.
/// `rounds` == 0 runs until `seconds` of measured wall time have passed;
/// otherwise exactly that many measured rounds (the traced replay).
void run_closed(const workload& w, phase_stats& ps, double seconds,
                std::size_t rounds, bool traced) {
    fleet_handle& f = *ps.fleet;
    const std::size_t n = w.sessions.size();
    std::vector<patient_stream> streams;
    streams.reserve(n);
    for (const session_plan& p : w.sessions) streams.push_back(p.stream);
    report_watch watch(n);
    std::vector<char> aligned(n);
    for (std::size_t i = 0; i < n; ++i)
        aligned[i] = w.sessions[i].analysis.lomb.hop_aligned;
    std::vector<beat> buf(w.chunk);
    ps.delivered.assign(n, 0);
    if (traced) ps.pump_ms.reserve(1 << 16);
    std::int64_t t0 = kNever;

    const auto collect = [&](std::int64_t t_ret) {
        for (std::size_t i = 0; i < n; ++i) watch.collect(f, i, t_ret, t0, ps);
    };

    const auto round = [&](bool measure) {
        const std::int64_t t_round = now_ns();
        for (std::size_t i = 0; i < n; ++i) {
            for (beat& b : buf) b = streams[i].next();
            const std::int64_t t_chunk = now_ns();
            if (measure) ps.ingest_lag.add(t_chunk, t_chunk - t_round);
            for (const beat& b : buf)
                while (!f.ingest(i, b.t, b.rr)) f.pump();  // backpressure
            if (traced && measure) {
                ps.ingest_ns += static_cast<double>(now_ns() - t_chunk);
                ps.ingest_beats += buf.size();
            }
            for (const beat& b : buf)
                watch.tracker(i).on_beat(b.t, t_chunk, w.monitor, aligned[i]);
            ps.delivered[i] += buf.size();
        }
        pump_pass(f, ps, measure, traced);
        collect(now_ns());
    };

    for (std::size_t r = 0; r < w.warmup_rounds; ++r) round(false);

    if (traced) {
        tracer::instance().reset_totals();
        ps.kind_windows_at_start = kind_windows(w, f);
    }
    ps.heap_bytes_at_start = heap_in_use_bytes();
    const std::uint64_t windows0 = fleet_windows(f, n);
    const std::uint64_t allocs0 = heap_allocs();
    t0 = now_ns();
    start_measuring(ps, t0, seconds);
    for (;;) {
        round(true);
        ++ps.measured_rounds;
        if (rounds != 0 ? ps.measured_rounds >= rounds
                        : static_cast<double>(now_ns() - t0) / 1e9 >= seconds)
            break;
    }
    f.drain_all();
    collect(now_ns());
    ps.allocs = heap_allocs() - allocs0;
    ps.windows = fleet_windows(f, n) - windows0;
}

/// Open loop: beats fall due on an accelerated real-time schedule; the
/// feeder delivers whatever is due, pumps, and sleeps until the next ingest
/// tick (or the next due beat, if later).  Every simulated minute it
/// snapshots and serializes each
/// shard.  The phase ends once every beat due before the simulated end
/// has been delivered and drained, so the beat set is schedule-independent.
void run_open(const workload& w, phase_stats& ps, double seconds, bool traced) {
    fleet_handle& f = *ps.fleet;
    const std::size_t n = w.sessions.size();
    std::vector<patient_stream> streams;
    streams.reserve(n);
    for (const session_plan& p : w.sessions) streams.push_back(p.stream);
    std::vector<beat> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = streams[i].next();
    report_watch watch(n);
    std::vector<std::uint32_t> touched;
    touched.reserve(n);
    std::vector<char> is_touched(n, 0);
    ps.delivered.assign(n, 0);
    if (traced) ps.pump_ms.reserve(1 << 18);
    ps.snapshot_us.reserve(4096);
    ps.serialize_us.reserve(4096);
    ps.wire_bytes.reserve(4096);

    const real sim_end = w.warmup_sim_s + seconds * w.accel;
    const std::int64_t wall0 = now_ns();
    const auto sim_at = [&](std::int64_t ns) {
        return static_cast<real>(ns - wall0) * 1e-9 * w.accel;
    };
    const auto due_of = [&](real sim) {
        return wall0 + static_cast<std::int64_t>(sim / w.accel * 1e9);
    };
    const auto tick_ns = static_cast<std::int64_t>(w.tick_s * 1e9);
    std::int64_t t0 = kNever;
    std::uint64_t windows0 = 0, allocs0 = 0;
    real next_snapshot = w.snapshot_every_sim_s;

    const auto collect = [&](std::int64_t t_ret, bool all) {
        if (all) {
            for (std::size_t i = 0; i < n; ++i) watch.collect(f, i, t_ret, t0, ps);
        } else {
            for (const std::uint32_t i : touched) watch.collect(f, i, t_ret, t0, ps);
        }
        for (const std::uint32_t i : touched) is_touched[i] = 0;
        touched.clear();
    };

    for (;;) {
        const std::int64_t now = now_ns();
        const real sim_now = std::min(sim_at(now), sim_end);
        if (t0 == kNever && sim_now >= w.warmup_sim_s) {
            if (traced) {
                tracer::instance().reset_totals();
                ps.kind_windows_at_start = kind_windows(w, f);
            }
            ps.heap_bytes_at_start = heap_in_use_bytes();
            windows0 = fleet_windows(f, n);
            allocs0 = heap_allocs();
            t0 = now;
            start_measuring(ps, t0, seconds);
        }
        const bool measure = t0 != kNever;
        real min_next = std::numeric_limits<real>::infinity();
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (next[i].t <= sim_now) {
                const std::int64_t t_batch = now_ns();
                std::uint64_t k = 0;
                while (next[i].t <= sim_now) {
                    const beat b = next[i];
                    const std::int64_t due = due_of(b.t);
                    if (measure && due >= t0) ps.ingest_lag.add(due, t_batch - due);
                    if (f.ingest(i, b.t, b.rr)) {
                        ++ps.delivered[i];
                        watch.tracker(i).on_beat(b.t, due, w.monitor, false);
                    } else {
                        ++ps.refused;  // lost: the gate will see the gap
                    }
                    next[i] = streams[i].next();
                    ++k;
                }
                if (traced && measure) {
                    ps.ingest_ns += static_cast<double>(now_ns() - t_batch);
                    ps.ingest_beats += k;
                }
                if (!is_touched[i]) {
                    is_touched[i] = 1;
                    touched.push_back(static_cast<std::uint32_t>(i));
                }
                any = true;
            }
            min_next = std::min(min_next, next[i].t);
        }
        if (any) {
            pump_pass(f, ps, measure, traced);
            collect(now_ns(), false);
        }
        if (sim_now >= next_snapshot) {
            next_snapshot += w.snapshot_every_sim_s;
            snapshot_shards(f, ps, measure);
        }
        if (sim_now >= sim_end) break;
        // Next pass: one ingest tick after this one, or later if no beat
        // falls due before then.
        const std::int64_t wake =
            std::min(std::max(now + tick_ns, due_of(min_next)), due_of(sim_end));
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::max<std::int64_t>(0, wake - now_ns())));
    }
    f.drain_all();
    collect(now_ns(), true);
    ps.allocs = heap_allocs() - allocs0;
    ps.windows = fleet_windows(f, n) - windows0;
}

void run_phase(const workload& w, phase_stats& ps, double seconds,
               std::size_t rounds, bool traced) {
    if (w.open_loop)
        run_open(w, ps, seconds, traced);
    else
        run_closed(w, ps, seconds, rounds, traced);
}

/// Correctness gate: every session's reports against a serial
/// streaming_monitor over exactly the beats the fleet accepted; governed
/// sessions replay their recorded switch log.  Band powers, diagnosis,
/// op tally (and every other report field) must be bit-identical.
/// Returns failures; `expected` receives the reference window count.
std::uint64_t gate_reference(const workload& w, const fleet_handle& f,
                             const std::vector<std::uint64_t>& delivered,
                             bool perturb, std::uint64_t& expected) {
    service::plan_cache cache;
    const core::system_factory factory = [&cache](const core::psa_config& c) {
        return cache.system_for(c);
    };
    const std::size_t n = w.sessions.size();
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> bad{0}, windows{0};
    const auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                const session_plan& p = w.sessions[i];
                const service::session& live = f.at(i);
                core::quality_governor gov(p.quality);
                core::streaming_monitor mon(
                    gov.initial_config(p.analysis).value_or(p.analysis), w.monitor,
                    factory);
                const auto log = live.switch_log();
                const auto got = live.reports();
                patient_stream stream = p.stream;
                std::uint64_t k = 0, fails = 0;
                std::size_t sw = 0;
                for (std::uint64_t b = 0; b < delivered[i]; ++b) {
                    const beat bt = stream.next();
                    if (perturb && i == 0 && b == delivered[i] / 2) continue;
                    mon.push_beat(bt.t, bt.rr);
                    while (auto rep = mon.poll()) {
                        if (k >= got.size() || !(got[k] == *rep)) ++fails;
                        ++k;
                        if (sw < log.size() && log[sw].window_index == k) {
                            mon.set_config(p.quality.controller->profiles()
                                               [log[sw].mode_index]
                                                   .apply_to(p.analysis));
                            ++sw;
                        }
                    }
                }
                if (got.size() > k) fails += got.size() - k;  // extra windows
                if (sw != log.size()) ++fails;
                if (live.beats_ingested() != delivered[i] || live.beats_rejected() != 0)
                    ++fails;
                windows.fetch_add(k);
                bad.fetch_add(fails);
            } catch (const std::exception&) {
                bad.fetch_add(1);
            }
        }
    };
    const std::size_t threads =
        std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    expected = windows.load();
    return bad.load();
}

/// Sessions whose reports or switch logs differ between two fleets that
/// were fed the same beats.
std::uint64_t fleets_differ(const fleet_handle& a, const fleet_handle& b,
                            std::size_t n) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto ra = a.at(i).reports(), rb = b.at(i).reports();
        const auto la = a.at(i).switch_log(), lb = b.at(i).switch_log();
        if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()) ||
            !std::equal(la.begin(), la.end(), lb.begin(), lb.end()))
            ++bad;
    }
    return bad;
}

struct setup_out {
    std::unique_ptr<fleet_handle> fleet;
    fs::path journal_dir;  ///< the kept fleet's journals (journaled workloads)
    double median_s = 0.0;
};

/// Build the fleet `reps` times anew (fresh plan cache, fresh
/// journal directory) and keep the last; reports the median set-up time.
setup_out timed_setup(const workload& w, const fs::path& work, int reps) {
    setup_out out;
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const fs::path dir = work / ("journal-" + std::to_string(r));
        const std::int64_t t0 = now_ns();
        auto f = std::make_unique<fleet_handle>(w, w.journal ? dir.string() : "");
        times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        if (r + 1 == reps) {
            out.fleet = std::move(f);
            out.journal_dir = dir;
        } else {
            f.reset();
            fs::remove_all(dir);
        }
    }
    out.median_s = median(times);
    return out;
}

}  // namespace

run_result run_ledger(const run_options& opt) {
    const workload w = make_workload(opt.workload, opt.seed, opt.tiny);
    const std::size_t n = w.sessions.size();
    run_result res;
    res.workers = w.workers;
    res.shards = w.shards;
    const fs::path work = fs::path(opt.work_dir) /
                          (opt.workload + "-" + std::to_string(opt.seed) + "-" +
                           std::to_string(::getpid()));
    fs::create_directories(work);
    const int reps = opt.tiny ? 2 : 7;
    const double seconds = opt.seconds;

    if (opt.trace) tracer::instance();  // span log allocated before baselines
    const double heap0 = heap_in_use_bytes();

    // ---- untraced phase: the end-to-end numbers -----------------------
    setup_out setup = timed_setup(w, work, reps);
    phase_stats u;
    u.fleet = std::move(setup.fleet);
    run_phase(w, u, seconds, 0, false);
    // Service footprint: heap growth through set-up and warm-up.  Later
    // growth is dominated by the report log the gate keeps, which scales
    // with throughput, so it is left out.
    const double heap_mb = (u.heap_bytes_at_start - heap0) / (1024.0 * 1024.0);
    double u_windows_per_s = 0.0, u_cpu_per_window = 0.0;
    slice_rates(u, u_windows_per_s, u_cpu_per_window);

    std::uint64_t failed = u.refused + u.unmatched;
    std::uint64_t expected = 0;

    if (!opt.trace) {
        failed += gate_reference(w, *u.fleet, u.delivered, opt.perturb_reference,
                                 expected);
        if (w.journal) {
            u.fleet->close_journals();
            const auto rebuilt =
                qpsa::journal::rebuild_fleet_snapshot(setup.journal_dir.string());
            if (!(rebuilt == u.fleet->fleet())) ++failed;
        }
        metric_list& m = res.metrics;
        m.add("windows_per_s", u_windows_per_s, "windows/s");
        m.add("cpu_us_per_window", u_cpu_per_window, "us");
        m.add("allocs_per_window",
              safe_div(static_cast<double>(u.allocs), static_cast<double>(u.windows)),
              "count");
        m.add("report_latency_p50_ms", u.report_latency.quantile_ms(0.50), "ms");
        m.add("setup_s", setup.median_s, "s");
        m.add("service_heap_mb", heap_mb, "MiB");
    } else {
        // ---- traced phase: same beats through a decorated fleet -------
        tracer& tr = tracer::instance();
        tr.install();
        phase_stats t;
        const fs::path tdir = work / "journal-traced";
        t.fleet = std::make_unique<fleet_handle>(w, w.journal ? tdir.string() : "");
        {
            scoped_span s("phase.traced");
            run_phase(w, t, seconds, u.measured_rounds, true);
        }
        double t_windows_per_s = 0.0, t_cpu_per_window = 0.0;
        slice_rates(t, t_windows_per_s, t_cpu_per_window);
        std::array<engine_totals, kKindSlots> engine{};
        for (std::size_t k = 0; k < kKindSlots; ++k) engine[k] = tr.totals(k);
        std::array<std::uint64_t, kKindSlots> kwin = kind_windows(w, *t.fleet);
        for (std::size_t k = 0; k < kKindSlots; ++k) kwin[k] -= t.kind_windows_at_start[k];

        // Snapshot cost on closed loops (open loops snapshot in-run).
        if (t.snapshot_us.empty())
            for (int r = 0; r < 5; ++r) snapshot_shards(*t.fleet, t, true);
        std::vector<double> shard_windows;
        for (std::size_t k = 0; k < t.fleet->shard_count(); ++k)
            shard_windows.push_back(static_cast<double>(t.fleet->shard_fleet(k).windows));
        const service::plan_cache_stats cs = t.fleet->cache_stats();
        double close_ms = 0.0;
        if (w.journal) {
            const std::int64_t a = now_ns();
            t.fleet->close_journals();
            close_ms = static_cast<double>(now_ns() - a) / 1e6;
        }
        const service::fleet_snapshot snap = t.fleet->fleet();

        const replay_rows rp = run_replay(w, opt.seed, opt.tiny);
        tr.uninstall();

        // Gate: the traced fleet against the serial reference, the traced
        // fleet against the untraced one (same beats), and the journal.
        failed += t.refused + t.unmatched;
        failed += gate_reference(w, *t.fleet, t.delivered, opt.perturb_reference,
                                 expected);
        if (t.delivered != u.delivered) failed += n;
        failed += fleets_differ(*u.fleet, *t.fleet, n);
        if (w.journal) {
            const auto rebuilt = qpsa::journal::rebuild_fleet_snapshot(tdir.string());
            if (!(rebuilt == snap)) ++failed;
        }

        const double tw = static_cast<double>(t.windows);
        double engine_us = 0.0;
        for (const engine_totals& e : engine) engine_us += static_cast<double>(e.ns) / 1e3;
        double fast_lomb_us = 0.0;
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            fast_lomb_us += static_cast<double>(kwin[k]) * rp.fast_lomb_self_us[k];
        double snapshot_total_us = 0.0;
        if (w.open_loop)
            for (std::size_t i = 0; i < t.snapshot_us.size(); ++i)
                snapshot_total_us += t.snapshot_us[i] + t.serialize_us[i];
        const double ingest_us = t.ingest_ns / 1e3;
        const double named_per_window =
            safe_div(engine_us + fast_lomb_us + ingest_us + snapshot_total_us, tw) +
            rp.monitor_self_us;
        const std::uint64_t warm_lookups =
            cs.hits + cs.misses - std::min<std::uint64_t>(cs.entries, cs.misses);

        metric_list& m = res.metrics;
        m.add("service.ingest.ns_per_beat",
              safe_div(t.ingest_ns, static_cast<double>(t.ingest_beats)), "ns");
        m.add("service.pump.ms_p50", quantile(t.pump_ms, 0.50), "ms");
        m.add("service.pump.ms_p99", quantile(t.pump_ms, 0.99), "ms");
        m.add("service.pump.windows_per_pass",
              safe_div(static_cast<double>(t.progress.back().windows),
                       static_cast<double>(t.pump_ms.size())),
              "count");
        m.add("service.pool.busy_ratio",
              safe_div(t.pump_cpu_us,
                       t.pump_wall_us * static_cast<double>(w.workers * w.shards)),
              "ratio");
        m.add("service.overhead_us_per_window", safe_div(t.pump_cpu_us - engine_us, tw),
              "us");
        double shard_sum = 0.0;
        for (const double v : shard_windows) shard_sum += v;
        m.add("service.shard.window_skew",
              safe_div(*std::max_element(shard_windows.begin(), shard_windows.end()),
                       shard_sum / static_cast<double>(shard_windows.size())),
              "ratio");
        m.add("service.scheduler.lane_fill",
              safe_div(static_cast<double>(snap.lane_slots_filled),
                       static_cast<double>(snap.lane_slots_offered)),
              "ratio");
        m.add("service.scheduler.stolen_share",
              safe_div(static_cast<double>(snap.windows_stolen),
                       static_cast<double>(snap.windows)),
              "ratio");
        m.add("service.plan_cache.hit_rate_warm",
              warm_lookups > 0 ? static_cast<double>(cs.hits) /
                                     static_cast<double>(warm_lookups)
                               : 1.0,
              "ratio");
        m.add("service.fleet.snapshot_us", median(t.snapshot_us), "us");
        m.add("service.wire.serialize_us", median(t.serialize_us), "us");
        m.add("service.wire.bytes", median(t.wire_bytes), "B");
        m.add("journal.bytes_per_window",
              safe_div(static_cast<double>(snap.journal_bytes),
                       static_cast<double>(snap.windows)),
              "B");
        m.add("journal.appends_per_window",
              safe_div(static_cast<double>(snap.journal_appends),
                       static_cast<double>(snap.windows)),
              "count");
        m.add("journal.close_ms", close_ms, "ms");
        m.add("core.monitor.self_us_per_window", rp.monitor_self_us, "us");
        m.add("core.governor.mode_switches", static_cast<double>(snap.mode_switches),
              "count");
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            m.add(std::string("core.psa_system.analyze_us.") + kLedgerKinds[k],
                  rp.analyze_us[k], "us");
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            m.add(std::string("lomb.engine.us_per_window.") + kLedgerKinds[k],
                  safe_div(static_cast<double>(engine[k].ns) / 1e3,
                           static_cast<double>(kwin[k])),
                  "us");
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            m.add(std::string("lomb.engine.items_per_call.") + kLedgerKinds[k],
                  safe_div(static_cast<double>(engine[k].items),
                           static_cast<double>(engine[k].calls)),
                  "count");
        m.add("lomb.extirpolate_us", rp.extirpolate_us, "us");
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            if (!whole_window_kind(k))
                m.add(std::string("lomb.fast_lomb.self_us.") + kLedgerKinds[k],
                      rp.fast_lomb_self_us[k], "us");
        m.add("lomb.hop_cache.hit_rate",
              safe_div(static_cast<double>(snap.hop_hits),
                       static_cast<double>(snap.hop_hits + snap.hop_misses)),
              "ratio");
        m.add("lomb.hop_cache.bytes", static_cast<double>(snap.hop_bytes), "B");
        for (std::size_t k = 0; k < kLedgerKinds.size(); ++k)
            m.add(std::string("counting.overhead_us.") + kLedgerKinds[k],
                  rp.counting_overhead_us[k], "us");
        m.add("ledger.unexplained_pct",
              100.0 * safe_div(u_cpu_per_window - named_per_window, u_cpu_per_window),
              "%");
        m.add("trace.overhead_pct",
              100.0 * safe_div(t_cpu_per_window - u_cpu_per_window, u_cpu_per_window),
              "%");
        // Tails of the untraced phase: too unsteady on a shared host (the
        // journal's file writes) to carry a bound, so they ride here.
        m.add("report_latency_p99_ms", u.report_latency.quantile_ms(0.99), "ms");
        m.add("ingest_lag_p99_ms", u.ingest_lag.quantile_ms(0.99), "ms");
        m.add("failed_window_ratio",
              safe_div(static_cast<double>(failed), static_cast<double>(expected)),
              "ratio");

        tr.write_spans((fs::path(opt.work_dir) /
                        (opt.workload + "-seed" + std::to_string(opt.seed) +
                         ".spans.jsonl"))
                           .string());
    }

    res.attempted = std::max<std::uint64_t>(expected, 1);
    res.failed = failed;
    res.correct = failed == 0;
    u.fleet.reset();
    fs::remove_all(work);
    return res;
}

}  // namespace perfbench
