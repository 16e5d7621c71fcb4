#include "replay.hpp"

#include "harness.hpp"
#include "qpsa/counting/op_counter.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/util/random.hpp"

namespace perfbench {

namespace lomb = qpsa::lomb;
namespace counting = qpsa::counting;

namespace {

struct sample_window {
    std::vector<real> t;
    std::vector<real> x;
};

constexpr real kSpan = 120.0;   // window seconds: the extirpolation span
constexpr int kMacc = 4;        // Lagrange kernel order of the pipeline
constexpr std::size_t kMesh = 512;

/// Median over `reps` repetitions of body()'s per-window microseconds.
template <typename F>
double median_us(int reps, std::size_t windows, F&& body) {
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = now_ns();
        body();
        per.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                      static_cast<double>(windows));
    }
    return median(std::move(per));
}

}  // namespace

replay_rows run_replay(const workload& w, std::uint64_t seed, bool tiny) {
    replay_rows rows;
    tracer& tr = tracer::instance();
    scoped_span whole("replay");
    service::plan_cache cache;
    const core::system_factory factory = [&cache](const core::psa_config& c) {
        return cache.system_for(c);
    };

    // 1. Monitor layer: seeded sessions replayed through a staging monitor.
    // The analysis step runs between push_beat and finish_staged, so the
    // two timed calls are the monitor's own work: window cut, band
    // integration, classification, report bookkeeping.
    const std::size_t sessions = tiny ? 4 : 16;
    const std::size_t per_session = tiny ? 4 : 8;
    qpsa::util::rng rng = qpsa::util::rng::for_stream(seed, 0x5e1ec7);
    std::vector<sample_window> samples;
    std::int64_t monitor_ns = 0;
    std::size_t monitor_windows = 0;
    {
        scoped_span s("replay.monitor", "", whole.id());
        for (std::size_t k = 0; k < sessions; ++k) {
            const auto i = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(w.sessions.size()) - 1));
            const session_plan& p = w.sessions[i];
            core::quality_governor gov(p.quality);
            core::streaming_monitor mon(
                gov.initial_config(p.analysis).value_or(p.analysis), w.monitor,
                factory);
            mon.set_staging(true);
            lomb::workspace ws;
            patient_stream stream = p.stream;
            std::size_t got = 0;
            while (got < per_session) {
                const beat b = stream.next();
                std::int64_t t0 = now_ns();
                mon.push_beat(b.t, b.rr);
                monitor_ns += now_ns() - t0;
                while (mon.has_staged()) {
                    lomb::window_job job = mon.staged_job();
                    mon.system().analyze_window_batched({&job, 1}, ws);
                    if (job.ok && got < per_session) {
                        samples.push_back({{job.t.begin(), job.t.end()},
                                           {job.x.begin(), job.x.end()}});
                        ++got;
                    }
                    t0 = now_ns();
                    mon.finish_staged(job.ok);
                    monitor_ns += now_ns() - t0;
                    ++monitor_windows;
                }
                while (mon.poll()) {
                }
            }
        }
    }
    rows.monitor_self_us =
        safe_div(static_cast<double>(monitor_ns) / 1e3,
                 static_cast<double>(monitor_windows));
    const std::size_t n = samples.size();
    const int reps = tiny ? 2 : 5;

    // 2. Extirpolation, alone (Lagrange, the kernel order the aligned
    // pipeline uses).
    std::vector<real> mesh(kMesh);
    rows.extirpolate_us = median_us(reps, n, [&] {
        for (const sample_window& sw : samples)
            lomb::extirpolate(sw.t, sw.x, mesh, kMacc, sw.t.front(), kSpan);
    });

    // Transform inputs of the counting replay: each window's extirpolated
    // mesh as the complex sequence a two-transform Fast-Lomb feeds in.
    std::vector<std::vector<qpsa::cplx>> meshes(n, std::vector<qpsa::cplx>(kMesh));
    for (std::size_t i = 0; i < n; ++i) {
        lomb::extirpolate(samples[i].t, samples[i].x, mesh, kMacc,
                          samples[i].t.front(), kSpan);
        for (std::size_t j = 0; j < kMesh; ++j) meshes[i][j] = {mesh[j], 0.0};
    }

    // 3. Per engine kind: psa_system analysis (transform time from the
    // decorator), and the engine call with counting on vs paused.
    const auto mix = mode_mix();
    for (const core::psa_config& cfg : mix) {
        const std::size_t k = kind_slot(kind_name(cfg));
        scoped_span s("replay.kind", kLedgerKinds[k], whole.id());
        const auto sys = cache.system_for(cfg);
        lomb::workspace ws;
        lomb::lomb_result out;
        lomb::lomb_breakdown bd;
        const auto analyze_all = [&] {
            for (const sample_window& sw : samples)
                sys->analyze_window(sw.t, sw.x, ws, out, &bd);
        };
        analyze_all();  // warm: workspace sized, tables touched
        std::vector<double> analyze, transform;
        for (int r = 0; r < reps; ++r) {
            const engine_totals e0 = tr.totals(k);
            const std::int64_t t0 = now_ns();
            analyze_all();
            const std::int64_t dt = now_ns() - t0;
            const engine_totals e1 = tr.totals(k);
            analyze.push_back(static_cast<double>(dt) / 1e3 / static_cast<double>(n));
            transform.push_back(static_cast<double>(e1.ns - e0.ns) / 1e3 /
                                static_cast<double>(n));
        }
        rows.analyze_us[k] = median(analyze);
        rows.transform_us[k] = median(transform);
        if (!whole_window_kind(k)) {
            const bool lagrange =
                cfg.lomb.mesh == lomb::mesh_mode::lagrange_extirpolation;
            rows.fast_lomb_self_us[k] = rows.analyze_us[k] - rows.transform_us[k] -
                                        (lagrange ? rows.extirpolate_us : 0.0);
        }

        const auto engine = tr.build_plain(cfg);
        qpsa::util::arena scratch(std::size_t{1} << 20);
        qpsa::wfft::exec_stats stats;
        std::vector<qpsa::cplx> fft_out(kMesh);
        qpsa::dsp::sampled_spectrum spectrum;
        const lomb::estimate_grid grid{1.0 / kSpan, 60};
        const auto engine_all = [&] {
            for (std::size_t i = 0; i < n; ++i) {
                qpsa::util::arena::frame f(scratch);
                if (engine->whole_window()) {
                    engine->estimate(samples[i].t, samples[i].x, grid, &stats,
                                     scratch, spectrum);
                } else {
                    // Two transforms per window (data mesh, weight mesh).
                    engine->forward(meshes[i], fft_out, &stats, scratch);
                    engine->forward(meshes[i], fft_out, &stats, scratch);
                }
            }
        };
        engine_all();
        // Alternate which arm runs first (ABBA), so drift of a shared host
        // between the two arms cancels instead of biasing one of them.
        std::vector<double> counted, paused;
        for (int r = 0; r < 2 * reps; ++r) {
            const auto count_arm = [&] {
                counting::op_counts sink;
                counted.push_back(median_us(1, n, [&] {
                    counting::count_scope c(sink);
                    engine_all();
                }));
            };
            const auto pause_arm = [&] {
                paused.push_back(median_us(1, n, [&] {
                    counting::pause_scope p;
                    engine_all();
                }));
            };
            if (r % 2 == 0) {
                count_arm();
                pause_arm();
            } else {
                pause_arm();
                count_arm();
            }
        }
        rows.counting_overhead_us[k] = median(counted) - median(paused);
    }
    return rows;
}

}  // namespace perfbench
