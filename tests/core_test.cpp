// Core PSA-system tests: configuration, end-to-end record analysis,
// conventional-vs-proposed agreement, quality controller, and the
// streaming monitor's one window-report path and bounded history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string_view>
#include <utility>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/core/quality_controller.hpp"
#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/physio/patients.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace ql = qpsa::lomb;
namespace qp = qpsa::physio;
namespace qf = qpsa::wfft;
namespace qw = qpsa::wavelet;

namespace {
const qp::rr_record& arrhythmia_record() {
    static const qp::rr_record rec =
        qp::record_for(qp::make_patient(qp::cohort::sinus_arrhythmia, 0), 900.0);
    return rec;
}
const qp::rr_record& healthy_record() {
    static const qp::rr_record rec =
        qp::record_for(qp::make_patient(qp::cohort::healthy, 0), 900.0);
    return rec;
}
}  // namespace

TEST(PsaConfigTest, FactoriesAndValidation) {
    const auto conv = qcore::psa_config::conventional();
    EXPECT_EQ(conv.kind(), qcore::engine_class::conventional);
    EXPECT_EQ(conv.lomb.mesh_size, 512u);
    EXPECT_NE(conv.describe().find("split-radix"), std::string::npos);

    const auto prop = qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set3));
    EXPECT_EQ(prop.kind(), qcore::engine_class::wavelet);
    EXPECT_NE(prop.describe().find("haar"), std::string::npos);
    EXPECT_NE(prop.describe().find("60%"), std::string::npos);

    auto bad = prop;
    bad.lomb.mesh_size = 256;  // mismatch with the wavelet plan's n
    EXPECT_THROW(bad.validate(), qpsa::contract_error);
}

TEST(PsaSystemTest, ArrhythmiaRecordFlagsCondition) {
    const qcore::psa_system sys(qcore::psa_config::conventional());
    const auto& rec = arrhythmia_record();
    const auto res = sys.analyze_record(rec.beat_time_s, rec.rr_s);
    EXPECT_GT(res.segments, 5u);
    EXPECT_LT(res.lf_hf_ratio(), 1.0);
    EXPECT_EQ(res.diagnosis, qpsa::hrv::diagnosis::sinus_arrhythmia);
}

TEST(PsaSystemTest, HealthyRecordIsNormal) {
    const qcore::psa_system sys(qcore::psa_config::conventional());
    const auto& rec = healthy_record();
    const auto res = sys.analyze_record(rec.beat_time_s, rec.rr_s);
    EXPECT_GT(res.lf_hf_ratio(), 1.0);
    EXPECT_EQ(res.diagnosis, qpsa::hrv::diagnosis::normal);
}

TEST(PsaSystemTest, ExactWaveletMatchesConventional) {
    const qcore::psa_system conv(qcore::psa_config::conventional());
    const qcore::psa_system wave(qcore::psa_config::proposed(
        qf::plan::exact(512, qw::basis::haar)));
    const auto& rec = arrhythmia_record();
    const auto rc = conv.analyze_record(rec.beat_time_s, rec.rr_s);
    const auto rw = wave.analyze_record(rec.beat_time_s, rec.rr_s);
    EXPECT_NEAR(rc.lf_hf_ratio(), rw.lf_hf_ratio(), 1e-6);
}

TEST(PsaSystemTest, PrunedSystemStaysCloseAndCheaper) {
    const qcore::psa_system conv(qcore::psa_config::conventional());
    const qcore::psa_system pruned(qcore::psa_config::proposed(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set3)));
    const auto& rec = arrhythmia_record();
    const auto rc = conv.analyze_record(rec.beat_time_s, rec.rr_s);
    const auto rp = pruned.analyze_record(rec.beat_time_s, rec.rr_s);

    // Quality: the ratio error stays within ~15 % and the diagnosis is
    // unchanged (the paper reports 3-9.2 % ratio error for these modes).
    const real err = std::abs(rp.lf_hf_ratio() - rc.lf_hf_ratio()) /
                     rc.lf_hf_ratio();
    EXPECT_LT(err, 0.15);
    EXPECT_EQ(rp.diagnosis, rc.diagnosis);

    // Cost: the FFT block ops must shrink substantially.
    EXPECT_LT(rp.ops.fft.arithmetic() * 10, rc.ops.fft.arithmetic() * 8);
}

TEST(PsaSystemTest, SegmentRatiosAreFinite) {
    const qcore::psa_system sys(qcore::psa_config::conventional());
    const auto& rec = arrhythmia_record();
    const auto res = sys.analyze_record(rec.beat_time_s, rec.rr_s);
    ASSERT_EQ(res.segment_bands.size(), res.segments);
    for (const auto& bp : res.segment_bands) {
        EXPECT_GT(bp.hf, 0.0);
        EXPECT_GT(bp.lf, 0.0);
        EXPECT_TRUE(std::isfinite(bp.lf_hf_ratio()));
    }
}

TEST(PsaSystemTest, AnalyzeWindowReturnsSpectrum) {
    const qcore::psa_system sys(qcore::psa_config::conventional());
    const auto& rec = arrhythmia_record();
    std::vector<real> t(rec.beat_time_s.begin(), rec.beat_time_s.begin() + 140);
    std::vector<real> x(rec.rr_s.begin(), rec.rr_s.begin() + 140);
    qpsa::lomb::workspace ws;
    qpsa::lomb::lomb_result res;
    qpsa::lomb::lomb_breakdown bd;
    sys.analyze_window(t, x, ws, res, &bd);
    EXPECT_GT(res.spectrum.size(), 50u);
    EXPECT_GT(bd.fft.arithmetic(), 0u);
}

TEST(QualityControllerTest, SelectsByBudget) {
    std::vector<qcore::mode_profile> table(3);
    table[0].name = "exact";
    table[0].expected_error_pct = 0.0;
    table[0].expected_savings_vfs = 0.3;
    table[1].name = "mild";
    table[1].expected_error_pct = 3.0;
    table[1].expected_savings_vfs = 0.6;
    table[2].name = "aggressive";
    table[2].expected_error_pct = 9.0;
    table[2].expected_savings_vfs = 0.8;
    const qcore::quality_controller ctl(table);

    EXPECT_EQ(ctl.select(0.5).name, "exact");
    EXPECT_EQ(ctl.select(5.0).name, "mild");
    EXPECT_EQ(ctl.select(10.0).name, "aggressive");
}

TEST(QualityControllerTest, FallsBackToLeastDistortion) {
    std::vector<qcore::mode_profile> table(2);
    table[0].name = "a";
    table[0].expected_error_pct = 4.0;
    table[1].name = "b";
    table[1].expected_error_pct = 2.0;
    const qcore::quality_controller ctl(table);
    EXPECT_EQ(ctl.select(1.0).name, "b");
}

TEST(QualityControllerTest, TieBreakIsDeterministicAndOrderIndependent) {
    // Two modes with identical VFS savings: selection must not depend on
    // the calibration's iteration order.  Lower expected distortion wins;
    // a full tie falls back to the lexicographically smaller name.
    std::vector<qcore::mode_profile> table(3);
    table[0].name = "exact";
    table[1].name = "deep-b";
    table[1].expected_error_pct = 5.0;
    table[1].expected_savings_vfs = 0.6;
    table[2].name = "deep-a";
    table[2].expected_error_pct = 3.0;
    table[2].expected_savings_vfs = 0.6;

    const qcore::quality_controller fwd(table);
    std::reverse(table.begin(), table.end());
    const qcore::quality_controller rev(table);
    EXPECT_EQ(fwd.select(10.0).name, "deep-a");  // equal savings, less error
    EXPECT_EQ(rev.select(10.0).name, "deep-a");

    // Full tie (same savings, same error): name breaks it, both orders.
    std::vector<qcore::mode_profile> tied(2);
    tied[0].name = "mode-b";
    tied[0].expected_error_pct = 2.0;
    tied[0].expected_savings_vfs = 0.5;
    tied[1] = tied[0];
    tied[1].name = "mode-a";
    const qcore::quality_controller t1(tied);
    std::swap(tied[0], tied[1]);
    const qcore::quality_controller t2(tied);
    EXPECT_EQ(t1.select(10.0).name, "mode-a");
    EXPECT_EQ(t2.select(10.0).name, "mode-a");

    // select_index points at the selected profile in table order.
    EXPECT_EQ(&t2.profiles()[t2.select_index(10.0)], &t2.select(10.0));
}

TEST(QualityControllerTest, ApplyToSwapsEngineAndKeepsPipeline) {
    qcore::mode_profile prof;
    prof.name = "fixed-q15";
    prof.spec = qcore::fixed_wavelet_spec{qcore::fixed_format::q15};
    prof.mesh = 512;

    auto base = qcore::psa_config::conventional();
    base.window_seconds = 90.0;  // caller's pipeline shape must survive
    const auto applied = prof.apply_to(base);
    EXPECT_EQ(applied.kind(), qcore::engine_class::fixed_q15);
    EXPECT_EQ(applied.window_seconds, 90.0);
    EXPECT_EQ(applied.lomb.mesh_size, 512u);

    // A wavelet mode brings its own mesh via the plan.
    qcore::mode_profile wav;
    wav.spec = qcore::wavelet_spec{qf::plan::exact(256, qw::basis::haar)};
    const auto applied_wav = wav.apply_to(qcore::psa_config::conventional(512));
    EXPECT_EQ(applied_wav.kind(), qcore::engine_class::wavelet);
    EXPECT_EQ(applied_wav.lomb.mesh_size, 256u);
}

TEST(QualityControllerTest, BuildMeasuresAllModes) {
    // Small build (2 patients, short records) to keep the test fast; the
    // full-size build is exercised by the benches.
    qcore::controller_build_options opt;
    opt.training_patients = 2;
    opt.record_seconds = 400.0;
    opt.include_dynamic = false;
    opt.include_fixed_point = false;
    opt.include_estimators = false;
    const qpsa::energy::node_model node;
    const auto ctl = qcore::build_quality_controller(opt, node);

    const auto profiles = ctl.profiles();
    ASSERT_EQ(profiles.size(), 5u);  // exact, band-drop, 3 static sets
    // Exact wavelet: no distortion, no savings worth mentioning.
    EXPECT_LT(profiles[0].expected_error_pct, 0.5);
    // Aggressive modes save more than mild ones (VFS-aware).
    EXPECT_GT(profiles[4].expected_savings_vfs, profiles[1].expected_savings_vfs);
    // All modes keep the diagnosis on all training records.
    for (const auto& p : profiles)
        EXPECT_DOUBLE_EQ(p.detection_agreement, 1.0) << p.name;
    // Selection respects the measured table.
    const auto& chosen = ctl.select(100.0);
    EXPECT_GE(chosen.expected_savings_vfs,
              profiles[1].expected_savings_vfs - 1e-12);
}

TEST(QualityControllerTest, BuildCalibratesRegistryKindsToo) {
    // The extended table: fixed-point and whole-window estimator kinds
    // calibrated through core::engine_registry next to the wavelet modes
    // -- the profiles the run-time governor switches between.
    qcore::controller_build_options opt;
    opt.training_patients = 2;
    opt.record_seconds = 400.0;
    opt.include_dynamic = false;
    const qpsa::energy::node_model node;
    const auto ctl = qcore::build_quality_controller(opt, node);

    const auto profiles = ctl.profiles();
    ASSERT_EQ(profiles.size(), 9u);  // 5 wavelet + q15/q31 + burg/resampled

    const auto find = [&](std::string_view name) -> const qcore::mode_profile* {
        for (const auto& p : profiles)
            if (p.name == name) return &p;
        return nullptr;
    };
    const auto* q15 = find("fixed-q15");
    const auto* q31 = find("fixed-q31");
    const auto* burg = find("burg-ar");
    const auto* resampled = find("resampled");
    ASSERT_NE(q15, nullptr);
    ASSERT_NE(q31, nullptr);
    ASSERT_NE(burg, nullptr);
    ASSERT_NE(resampled, nullptr);

    EXPECT_EQ(q15->kind(), qcore::engine_class::fixed_q15);
    EXPECT_EQ(q31->kind(), qcore::engine_class::fixed_q31);
    EXPECT_EQ(burg->kind(), qcore::engine_class::burg);
    EXPECT_EQ(resampled->kind(), qcore::engine_class::resampled);

    // Q31 tracks the double reference far tighter than Q15; both stay
    // finite and their measured configs deploy through apply_to.
    EXPECT_LT(q31->expected_error_pct, q15->expected_error_pct + 1e-9);
    for (const auto* p : {q15, q31, burg, resampled}) {
        EXPECT_TRUE(std::isfinite(p->expected_error_pct)) << p->name;
        EXPECT_TRUE(std::isfinite(p->expected_savings_vfs)) << p->name;
        const auto cfg = p->apply_to(qcore::psa_config::conventional());
        EXPECT_EQ(cfg.kind(), p->kind()) << p->name;
    }
}

// ------------------------------------------------------ streaming monitor

namespace {

struct beat {
    real t;
    real rr;
};

/// Modulated sinus rhythm, then a 130 s dropout (the first beat after it
/// closes several windows at once), then a constant-RR stretch whose
/// windows have exactly zero variance (RR = 1 s is exact in binary, so
/// the window mean is too), then modulated rhythm again.
std::vector<beat> dropout_and_flat_stream() {
    std::vector<beat> out;
    real t = 0.0;
    const auto modulated = [&](real until) {
        while (t < until) {
            const real rr =
                0.8 + 0.05 * std::sin(2.0 * std::numbers::pi * 0.25 * t) +
                0.03 * std::sin(2.0 * std::numbers::pi * 0.1 * t);
            t += rr;
            out.push_back({t, rr});
        }
    };
    modulated(400.0);
    t += 130.0;
    modulated(t + 200.0);
    for (int i = 0; i < 300; ++i) {
        t += 1.0;
        out.push_back({t, 1.0});
    }
    modulated(t + 300.0);
    return out;
}

struct staged_run {
    std::vector<qcore::window_report> reports;
    std::size_t skipped = 0;        ///< staged windows whose job failed
    std::size_t max_per_beat = 0;   ///< most reports one beat produced
};

/// Drive the monitor the way the batch scheduler does: staging on, each
/// staged window analyzed as a one-job batch and finished by hand.
staged_run run_staged(const qcore::psa_config& cfg,
                      const std::vector<beat>& beats) {
    qcore::streaming_monitor mon(cfg);
    mon.set_staging(true);
    ql::workspace ws;
    staged_run out;
    for (const beat& b : beats) {
        const std::size_t before = mon.windows_completed();
        mon.push_beat(b.t, b.rr);
        while (mon.has_staged()) {
            ql::window_job job = mon.staged_job();
            mon.system().analyze_window_batched({&job, 1}, ws);
            if (!job.ok) ++out.skipped;
            mon.finish_staged(job.ok);
        }
        out.max_per_beat =
            std::max(out.max_per_beat, mon.windows_completed() - before);
    }
    while (auto rep = mon.poll()) out.reports.push_back(*rep);
    return out;
}

}  // namespace

TEST(StreamingMonitorTest, InlineReportsEqualStagedReports) {
    qcore::psa_config welch = qcore::psa_config::welch(4.0, 30.0);
    welch.lomb.span_override = 120.0;
    welch.lomb.hop_aligned = true;
    const std::vector<std::pair<const char*, qcore::psa_config>> configs = {
        {"conventional", qcore::psa_config::conventional()},
        {"burg-ar", qcore::psa_config::burg_ar()},
        {"welch-hop-aligned", welch},
    };
    const std::vector<beat> beats = dropout_and_flat_stream();
    for (const auto& [name, cfg] : configs) {
        SCOPED_TRACE(name);
        qcore::streaming_monitor inline_mon(cfg);
        for (const beat& b : beats) inline_mon.push_beat(b.t, b.rr);
        std::vector<qcore::window_report> want;
        while (auto rep = inline_mon.poll()) want.push_back(*rep);

        const staged_run got = run_staged(cfg, beats);
        ASSERT_GT(want.size(), 10u);
        // Window for window, every field (bands, diagnosis, op tally).
        EXPECT_EQ(got.reports, want);
        // The stream exercises both edge cases: a beat that closes two
        // reported windows, and a zero-variance window that is skipped.
        EXPECT_GE(got.max_per_beat, 2u);
        EXPECT_GE(got.skipped, 1u);
        EXPECT_EQ(inline_mon.windows_completed(), want.size());
    }
}

TEST(StreamingMonitorTest, HistoryKeepsTheNewestWindowsOldestFirst) {
    // The bounded history retires its oldest report through a head index
    // and compacts every history_limit / 4 windows: after every window it
    // must still read as the newest history_limit reports, oldest first,
    // and export, restore and arrhythmia_fraction see only that range.
    qcore::monitor_options opt;
    opt.history_limit = 8;
    qcore::streaming_monitor mon(qcore::psa_config::conventional(), opt);
    const qp::rr_record& rec = arrhythmia_record();
    std::vector<qcore::window_report> all;
    for (std::size_t b = 0; b < rec.beats(); ++b) {
        mon.push_beat(rec.beat_time_s[b], rec.rr_s[b]);
        while (auto rep = mon.poll()) {
            all.push_back(*rep);
            const std::size_t keep = std::min(all.size(), opt.history_limit);
            const std::vector<qcore::window_report> want(
                all.end() - static_cast<std::ptrdiff_t>(keep), all.end());
            const auto hist = mon.history();
            ASSERT_EQ(std::vector<qcore::window_report>(hist.begin(),
                                                        hist.end()),
                      want);
            ASSERT_EQ(mon.export_state().history, want);
        }
    }
    ASSERT_GT(all.size(), opt.history_limit + opt.history_limit / 4);

    const auto live = mon.history();
    const auto flagged = std::count_if(
        live.begin(), live.end(), [](const qcore::window_report& r) {
            return r.diagnosis == qpsa::hrv::diagnosis::sinus_arrhythmia;
        });
    EXPECT_EQ(mon.arrhythmia_fraction(),
              static_cast<real>(flagged) / static_cast<real>(live.size()));

    qcore::streaming_monitor restored(qcore::psa_config::conventional(), opt);
    restored.restore_state(mon.export_state());
    const auto back = restored.history();
    EXPECT_EQ(std::vector<qcore::window_report>(back.begin(), back.end()),
              std::vector<qcore::window_report>(live.begin(), live.end()));
    EXPECT_EQ(restored.arrhythmia_fraction(), mon.arrhythmia_fraction());
}
