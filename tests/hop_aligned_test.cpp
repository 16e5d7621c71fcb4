// Hop-aligned analysis tests: a hop-aligned monitor's report is a pure
// function of its window and hop_ctx (no state carries between windows),
// a hop the mesh cannot align runs the window-anchored fill, mode switches
// and live migration keep streams bit-identical, and the retired
// hop-cache fleet columns still round-trip the wire while live fleets
// report them as zero.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/service/service.hpp"
#include "wire_samples.hpp"

using qpsa::real;
using qpsa::test::snapshot_as_version;
namespace qcore = qpsa::core;
namespace ql = qpsa::lomb;
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

/// Hop-aligned variant of a mesh-FFT config: Lagrange extirpolation on
/// the fixed 120 s span (hop = 60 s * 512 / 120 s = 256 mesh cells).
qcore::psa_config aligned_mesh(qcore::psa_config base) {
    base.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
    base.lomb.ofac = 1.0;
    base.lomb.span_override = 120.0;
    base.lomb.hop_aligned = true;
    return base;
}

/// Hop-aligned variant of a whole-window estimator config (resampled /
/// Welch): only the grid anchoring changes, the mesh mode is unused.
qcore::psa_config aligned_whole(qcore::psa_config base) {
    base.lomb.span_override = 120.0;
    base.lomb.hop_aligned = true;
    return base;
}

const qp::rr_record& long_record() {
    static const qp::rr_record rec =
        qp::record_for(qp::make_patient(qp::cohort::sinus_arrhythmia, 2), 900.0);
    return rec;
}

/// The beats of `rec` in [w0, w0 + seconds), as the monitor cuts them.
struct window {
    std::vector<real> t;
    std::vector<real> x;
};

window cut(const qp::rr_record& rec, real w0, real seconds) {
    window w;
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        const real bt = rec.beat_time_s[i];
        if (bt < w0 || bt >= w0 + seconds) continue;
        w.t.push_back(bt);
        w.x.push_back(rec.rr_s[i]);
    }
    return w;
}

/// The report a monitor would build for one window, computed standalone
/// through psa_system's workspace form with a freshly built hop_ctx.
qcore::window_report standalone_report(const qcore::psa_system& sys,
                                       const qp::rr_record& rec,
                                       const qcore::monitor_options& opt,
                                       real w0, ql::workspace& ws) {
    const window w = cut(rec, w0, opt.window_seconds);
    const ql::hop_ctx ctx{std::llround(w0 / opt.hop_seconds), opt.hop_seconds,
                          w0, opt.window_seconds};
    ql::lomb_result res;
    ql::lomb_breakdown bd;
    sys.analyze_window(w.t, w.x, ws, res, &bd, &ctx);
    qcore::window_report rep;
    rep.t_start = w0;
    rep.t_end = w0 + opt.window_seconds;
    rep.beats = w.t.size();
    rep.engine = sys.config().kind();
    rep.bands = qpsa::hrv::compute_band_powers(res.spectrum, sys.config().bands);
    rep.diagnosis = qpsa::hrv::classify(rep.bands);
    rep.ops = bd.total();
    return rep;
}

std::vector<qcore::window_report> run_stream(
    const qp::rr_record& rec, qcore::psa_config cfg,
    qcore::monitor_options opt = paper_monitor()) {
    qcore::streaming_monitor mon(std::move(cfg), opt);
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    std::vector<qcore::window_report> out;
    while (auto rep = mon.poll()) out.push_back(*rep);
    return out;
}

/// The full breakdown plus the spectrum of one standalone window.
struct analyzed {
    ql::lomb_result res;
    ql::lomb_breakdown bd;
};

analyzed analyze(const qcore::psa_system& sys, const window& w,
                 const ql::hop_ctx* ctx) {
    ql::workspace ws;
    analyzed a;
    sys.analyze_window(w.t, w.x, ws, a.res, &a.bd, ctx);
    return a;
}

}  // namespace

TEST(HopAlignedTest, MonitorReportsMatchStandaloneWindows) {
    const std::vector<std::pair<const char*, qcore::psa_config>> configs = {
        {"conventional", aligned_mesh(qcore::psa_config::conventional())},
        {"wavelet-exact", aligned_mesh(qcore::psa_config::proposed(
                              qf::plan::exact(512, qw::basis::haar)))},
        {"fixed-q15", aligned_mesh(qcore::psa_config::fixed_wavelet(
                          qcore::fixed_format::q15))},
        {"resampled", aligned_whole(qcore::psa_config::resampled())},
        {"welch", aligned_whole(qcore::psa_config::welch(4.0, 30.0))},
    };
    const auto& rec = long_record();
    const qcore::monitor_options opt = paper_monitor();
    for (const auto& [name, cfg] : configs) {
        SCOPED_TRACE(name);
        const auto reports = run_stream(rec, cfg);
        ASSERT_GT(reports.size(), 5u);
        // Reverse order through one reused workspace: nothing a window
        // computes may depend on the window before it.
        const qcore::psa_system sys(cfg);
        ql::workspace ws;
        for (std::size_t i = reports.size(); i-- > 0;) {
            SCOPED_TRACE(i);
            EXPECT_EQ(reports[i],
                      standalone_report(sys, rec, opt, reports[i].t_start, ws));
        }
    }
}

TEST(HopAlignedTest, MisalignedHopRunsTheWindowAnchoredFill) {
    // hop * mesh / span = 7 * 512 / 120 is not a whole number of mesh
    // cells: the aligned-mesh plan rejects it and the window runs the
    // same fill as a window with no hop context at all.  At the paper's
    // 60 s hop the aligned fill does engage (its per-beat hop-grid
    // arithmetic shows in the extirpolation tally).
    const auto cfg = aligned_mesh(qcore::psa_config::conventional());
    const qcore::psa_system sys(cfg);
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 1), 400.0);
    for (const real w0 : {140.0, 210.0}) {
        SCOPED_TRACE(w0);
        const window w = cut(rec, w0, 120.0);
        const analyzed plain = analyze(sys, w, nullptr);

        const ql::hop_ctx misaligned{std::llround(w0 / 7.0), 7.0, w0, 120.0};
        const analyzed off_grid = analyze(sys, w, &misaligned);
        EXPECT_EQ(off_grid.res.spectrum.power, plain.res.spectrum.power);
        EXPECT_EQ(off_grid.res.spectrum.freq_hz, plain.res.spectrum.freq_hz);
        EXPECT_EQ(off_grid.bd.total(), plain.bd.total());
        EXPECT_EQ(off_grid.bd.extirpolation, plain.bd.extirpolation);
    }
    const window w = cut(rec, 120.0, 120.0);
    const ql::hop_ctx on_grid{2, 60.0, 120.0, 120.0};
    EXPECT_NE(analyze(sys, w, &on_grid).bd.extirpolation,
              analyze(sys, w, nullptr).bd.extirpolation);
}

TEST(HopAlignedTest, ModeSwitchesStayPure) {
    // The governed ladder's switch sequence (exact double -> Q15 fixed
    // point -> pruned wavelet) applied via set_config: every report
    // equals the standalone analysis of its window under the config in
    // force, and the switches land on window boundaries.
    const auto conventional = aligned_mesh(qcore::psa_config::conventional());
    const auto q15 =
        aligned_mesh(qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15));
    const auto pruned = aligned_mesh(qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2)));
    const auto& rec = long_record();
    qcore::streaming_monitor mon(conventional, paper_monitor());
    std::vector<qcore::window_report> reports;
    for (std::size_t i = 0; i < rec.beats(); ++i) {
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
        while (auto rep = mon.poll()) {
            reports.push_back(*rep);
            if (reports.size() == 3) mon.set_config(q15);
            if (reports.size() == 6) mon.set_config(pruned);
        }
    }
    ASSERT_GT(reports.size(), 8u);
    EXPECT_EQ(reports[2].engine, qcore::engine_class::conventional);
    EXPECT_EQ(reports[5].engine, qcore::engine_class::fixed_q15);
    EXPECT_EQ(reports.back().engine, qcore::engine_class::wavelet);

    const qcore::psa_system sys_conv(conventional);
    const qcore::psa_system sys_q15(q15);
    const qcore::psa_system sys_pruned(pruned);
    ql::workspace ws;
    for (std::size_t i = reports.size(); i-- > 0;) {
        SCOPED_TRACE(i);
        const qcore::psa_system& sys = i < 3 ? sys_conv
                                       : i < 6 ? sys_q15
                                               : sys_pruned;
        EXPECT_EQ(reports[i], standalone_report(sys, rec, paper_monitor(),
                                                reports[i].t_start, ws));
    }
}

TEST(HopAlignedTest, MigrationIsBitIdentical) {
    // A hop-aligned session extracted mid-stream and adopted elsewhere:
    // the full report stream equals the never-migrated run.
    const auto rec =
        qp::record_for(qp::make_patient(qp::cohort::sinus_arrhythmia, 4),
                       1200.0);
    const auto make_cfg = [] {
        qs::session_config c;
        c.patient_id = "hop-migrate";
        c.analysis = aligned_mesh(qcore::psa_config::conventional());
        c.monitor = paper_monitor();
        c.ingest_capacity = 4096;
        return c;
    };
    qs::service_options sopt;
    sopt.threads = 1;

    qs::plan_cache solo_cache;
    qs::session_manager solo(sopt, &solo_cache);
    const auto solo_id = solo.add_session(make_cfg());
    for (std::size_t b = 0; b < rec.beats(); ++b)
        ASSERT_TRUE(solo.ingest(solo_id, rec.beat_time_s[b], rec.rr_s[b]));
    solo.drain_all();

    qs::plan_cache cache;
    qs::session_manager a(sopt, &cache);
    qs::session_manager b(sopt, &cache);
    const auto id_a = a.add_session(make_cfg());
    const std::size_t split = rec.beats() * 3 / 5;
    for (std::size_t i = 0; i < split; ++i)
        ASSERT_TRUE(a.ingest(id_a, rec.beat_time_s[i], rec.rr_s[i]));
    a.drain_all();
    ASSERT_GT(a.at(id_a).windows_completed(), 0u);

    qs::extracted_session es = a.extract_session(id_a);
    es.state = qs::session_runtime_state::deserialize(es.state.serialize());
    const auto id_b = b.adopt_session(es.config, es.state);
    for (std::size_t i = split; i < rec.beats(); ++i)
        ASSERT_TRUE(b.ingest(id_b, rec.beat_time_s[i], rec.rr_s[i]));
    b.drain_all();

    const auto got = b.at(id_b).reports();
    const auto want = solo.at(solo_id).reports();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(HopAlignedTest, RetiredHopColumnsRoundTripAndReadZero) {
    qs::fleet_snapshot s;
    s.windows = 3;
    s.hop_hits = 11;
    s.hop_misses = 5;
    s.hop_bytes = 65536;

    // v4 and v5 payloads carry the columns losslessly (s leaves the v5
    // drain-scheduler columns at zero, so the v4 payload loses nothing).
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snapshot_as_version(s, 5)), s);
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snapshot_as_version(s, 4)), s);

    // A v3 peer's payload predates them: they load as zero.
    qs::fleet_snapshot want_v3 = s;
    want_v3.hop_hits = 0;
    want_v3.hop_misses = 0;
    want_v3.hop_bytes = 0;
    EXPECT_EQ(qs::fleet_snapshot::deserialize(snapshot_as_version(s, 3)),
              want_v3);
    EXPECT_LT(snapshot_as_version(s, 3).size(),
              snapshot_as_version(s, 4).size());

    // operator+= still sums them like every other counter column.
    qs::fleet_snapshot sum = s;
    qs::fleet_snapshot other;
    other.hop_hits = 7;
    other.hop_misses = 2;
    other.hop_bytes = 1024;
    sum += other;
    EXPECT_EQ(sum.hop_hits, 18u);
    EXPECT_EQ(sum.hop_misses, 7u);
    EXPECT_EQ(sum.hop_bytes, 66560u);

    // A live hop-aligned fleet reports the retired columns as zero.
    qs::service_options sopt;
    sopt.threads = 1;
    qs::plan_cache cache;
    qs::session_manager mgr(sopt, &cache);
    const auto& rec = long_record();
    const std::vector<qcore::psa_config> mix = {
        aligned_mesh(qcore::psa_config::conventional()),
        aligned_whole(qcore::psa_config::resampled()),
        aligned_whole(qcore::psa_config::welch(4.0, 30.0))};
    for (std::size_t k = 0; k < mix.size(); ++k) {
        qs::session_config c;
        c.patient_id = "hop-" + std::to_string(k);
        c.analysis = mix[k];
        c.monitor = paper_monitor();
        c.ingest_capacity = 4096;
        const auto id = mgr.add_session(std::move(c));
        for (std::size_t b = 0; b < rec.beats(); ++b)
            ASSERT_TRUE(mgr.ingest(id, rec.beat_time_s[b], rec.rr_s[b]));
    }
    mgr.drain_all();
    const qs::fleet_snapshot live = mgr.fleet();
    EXPECT_GT(live.windows, 0u);
    EXPECT_EQ(live.hop_hits, 0u);
    EXPECT_EQ(live.hop_misses, 0u);
    EXPECT_EQ(live.hop_bytes, 0u);
    EXPECT_EQ(qs::fleet_snapshot::deserialize(live.serialize()), live);
}
