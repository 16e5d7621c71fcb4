// Weight-transform identity suite.
//
// On the paper's staircase, two-transform pipeline the weight mesh does
// not depend on the window's data, so psa_system transforms it once
// (lomb::weight_transform) and each window submits its data mesh only.
// These tests pin what makes that invisible: the memo equals a live
// forward bit for bit (spectrum and exec_stats), a window analyzed with it
// equals the two-transform run (spectrum, per-phase breakdown, exec_stats
// and the counts every active scope receives), and the engine really sees
// one transform per staircase window and two per Lagrange window.  A
// record analysis (Welch segments) given the memo equals the memo-less
// run in its averaged spectrum, segment bands and ops.  Every
// engine datapath with a mesh FFT is covered at ofac 1 and 2 (so the data
// cells fill only part of the mesh); CI also runs the suite with
// QPSA_FORCE_ISA=scalar and sse2.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/service/plan_cache.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/plan.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qc = qpsa::counting;
namespace qcore = qpsa::core;
namespace qf = qpsa::wfft;
namespace ql = qpsa::lomb;
namespace qw = qpsa::wavelet;

namespace {

struct named_config {
    std::string name;
    qcore::psa_config cfg;
};

/// Every mesh-FFT engine datapath, each at ofac 1 and 2.
std::vector<named_config> staircase_configs() {
    const std::vector<named_config> base = {
        {"conventional", qcore::psa_config::conventional()},
        {"wavelet-exact", qcore::psa_config::proposed(
                              qf::plan::exact(512, qw::basis::haar))},
        {"wavelet-static-pruned",
         qcore::psa_config::proposed(qf::plan::static_pruned(
             512, qw::basis::haar, qf::twiddle_set::set2))},
        {"wavelet-band-drop", qcore::psa_config::proposed(
                                  qf::plan::band_dropped(512, qw::basis::haar))},
        {"wavelet-dynamic",
         qcore::psa_config::proposed(qf::plan::dynamic_pruned(
             512, qw::basis::haar, qf::twiddle_set::set2, /*data_thr=*/0.5,
             /*band_thr=*/1e9))},
        {"fixed-q15", qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15)},
        {"fixed-q31", qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31)},
    };
    std::vector<named_config> out;
    for (const real ofac : {1.0, 2.0}) {
        for (named_config c : base) {
            c.cfg.lomb.ofac = ofac;
            c.name += ofac == 1.0 ? "/ofac1" : "/ofac2";
            out.push_back(std::move(c));
        }
    }
    return out;
}

/// Irregular RR window of n beats (modulated sinus rhythm + jitter).
struct rr_window {
    std::vector<real> t;
    std::vector<real> x;
};

rr_window make_window(std::size_t n, std::uint64_t seed) {
    qpsa::util::rng r(seed);
    rr_window w;
    real t = 3.0;
    for (std::size_t i = 0; i < n; ++i) {
        const real rr = 0.8 + 0.1 * std::sin(qpsa::two_pi * 0.1 * t) +
                        0.04 * std::sin(qpsa::two_pi * 0.27 * t) +
                        r.uniform(-0.05, 0.05);
        t += rr;
        w.t.push_back(t);
        w.x.push_back(rr);
    }
    return w;
}

std::vector<rr_window> make_windows() {
    std::vector<rr_window> ws;
    for (std::size_t i = 0; i < 9; ++i) ws.push_back(make_window(110 + 7 * i, 31 + i));
    return ws;
}

/// The staircase weight mesh as a complex engine input, built here from
/// its definition: a unit weight at the doubled position of each of the
/// mesh / ofac data cells.
std::vector<cplx> weight_mesh(std::size_t mesh, real ofac) {
    const auto n_data = static_cast<std::size_t>(static_cast<real>(mesh) / ofac);
    std::vector<cplx> z(mesh);
    for (std::size_t p = 0; p < n_data; ++p) z[(2 * p) % mesh] += cplx{1.0, 0.0};
    return z;
}

bool same_bits(real a, real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_bits(std::span<const cplx> a, std::span<const cplx> b) {
    ASSERT_EQ(a.size(), b.size());
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!same_bits(a[i].real(), b[i].real()) ||
            !same_bits(a[i].imag(), b[i].imag()))
            ++diffs;
    EXPECT_EQ(diffs, 0u);
}

void expect_same_stats(const qf::exec_stats& a, const qf::exec_stats& b) {
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.terms_total, b.terms_total);
    EXPECT_EQ(a.terms_pruned_factor, b.terms_pruned_factor);
    EXPECT_EQ(a.terms_pruned_data, b.terms_pruned_data);
    EXPECT_EQ(a.terms_structural_zero, b.terms_structural_zero);
    EXPECT_EQ(a.band_dropped, b.band_dropped);
}

void expect_same_result(const ql::lomb_result& a, const ql::lomb_result& b) {
    ASSERT_EQ(a.spectrum.power.size(), b.spectrum.power.size());
    ASSERT_EQ(a.spectrum.freq_hz.size(), b.spectrum.freq_hz.size());
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.spectrum.power.size(); ++i)
        if (!same_bits(a.spectrum.power[i], b.spectrum.power[i]) ||
            !same_bits(a.spectrum.freq_hz[i], b.spectrum.freq_hz[i]))
            ++diffs;
    EXPECT_EQ(diffs, 0u);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_TRUE(same_bits(a.mesh_span, b.mesh_span));
}

void expect_same_breakdown(const ql::lomb_breakdown& a,
                           const ql::lomb_breakdown& b) {
    EXPECT_EQ(a.moments, b.moments);
    EXPECT_EQ(a.extirpolation, b.extirpolation);
    EXPECT_EQ(a.fft, b.fft);
    EXPECT_EQ(a.combine, b.combine);
    expect_same_stats(a.fft_stats, b.fft_stats);
}

/// Decorator that counts the transforms the wrapped engine runs.
class counting_engine final : public ql::fft_engine {
public:
    explicit counting_engine(std::shared_ptr<const ql::fft_engine> inner)
        : inner_(std::move(inner)) {}

    std::size_t size() const noexcept override { return inner_->size(); }
    std::string name() const override { return inner_->name(); }
    using fft_engine::forward;
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 qf::exec_stats* stats) const override {
        ++transforms;
        inner_->forward(in, out, stats);
    }
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 qf::exec_stats* stats,
                 qpsa::util::arena& scratch) const override {
        ++transforms;
        inner_->forward(in, out, stats, scratch);
    }
    std::size_t batch_width() const noexcept override {
        return inner_->batch_width();
    }
    void forward_batched(std::span<const batch_item> items,
                         qpsa::util::arena& scratch) const override {
        transforms += items.size();
        inner_->forward_batched(items, scratch);
    }

    mutable std::atomic<std::size_t> transforms{0};

private:
    std::shared_ptr<const ql::fft_engine> inner_;
};

}  // namespace

TEST(WeightTransformTest, MemoEqualsLiveForwardOfTheWeightMesh) {
    for (const named_config& c : staircase_configs()) {
        SCOPED_TRACE(c.name);
        const auto engine = qcore::psa_system::build_engine(c.cfg);

        // Built with counting paused: an enclosing scope sees nothing.
        qc::op_counts outer;
        std::shared_ptr<const ql::weight_transform> w;
        {
            qc::count_scope scope(outer);
            w = ql::make_weight_transform(*engine, c.cfg.lomb);
        }
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(outer, qc::op_counts{});
        EXPECT_EQ(w->n_data,
                  static_cast<std::size_t>(512.0 / c.cfg.lomb.ofac));
        EXPECT_EQ(w->bins.size(), 255u);

        // Live forward of the weight mesh, alone and as the second item
        // of a window's pair (beside a data mesh, as the memo-less
        // pipeline submits it).
        const std::vector<cplx> zw = weight_mesh(512, c.cfg.lomb.ofac);
        std::vector<cplx> zd(512);
        qpsa::util::rng r(7);
        for (std::size_t i = 0; i < 256; ++i) zd[i] = {r.uniform(-0.1, 0.1), 0.0};
        qpsa::util::arena scratch;
        {
            std::vector<cplx> out(512);
            qf::exec_stats st;
            const ql::fft_engine::batch_item item{zw, out, &st};
            qc::op_counts counted;
            {
                qc::count_scope scope(counted);
                engine->forward_batched({&item, 1}, scratch);
            }
            expect_same_bits(w->spectrum, out);
            expect_same_stats(w->stats, st);
            EXPECT_EQ(counted, w->stats.ops);
        }
        {
            std::vector<cplx> out_d(512);
            std::vector<cplx> out_w(512);
            qf::exec_stats st_d;
            qf::exec_stats st_w;
            const ql::fft_engine::batch_item items[2] = {{zd, out_d, &st_d},
                                                         {zw, out_w, &st_w}};
            engine->forward_batched(items, scratch);
            expect_same_bits(w->spectrum, out_w);
            expect_same_stats(w->stats, st_w);
        }
    }
}

TEST(WeightTransformTest, NoMemoWithoutAConstantWeightMesh) {
    qcore::psa_config lagrange = qcore::psa_config::conventional();
    lagrange.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
    qcore::psa_config packed = qcore::psa_config::conventional();
    packed.lomb.packing = ql::fft_packing::packed_single;
    for (const qcore::psa_config& cfg :
         {lagrange, packed, qcore::psa_config::burg_ar(),
          qcore::psa_config::resampled(), qcore::psa_config::welch(),
          qcore::psa_config::direct_lomb()}) {
        SCOPED_TRACE(cfg.describe());
        const qcore::psa_system sys(cfg);
        EXPECT_EQ(sys.weights(), nullptr);
        EXPECT_EQ(ql::make_weight_transform(sys.engine(), cfg.lomb), nullptr);
    }
    for (const named_config& c : staircase_configs())
        EXPECT_NE(qcore::psa_system(c.cfg).weights(), nullptr) << c.name;
}

TEST(WeightTransformTest, SystemWindowEqualsTwoTransformFastLomb) {
    const std::vector<rr_window> windows = make_windows();
    for (const named_config& c : staircase_configs()) {
        SCOPED_TRACE(c.name);
        const qcore::psa_system sys(c.cfg);
        ASSERT_NE(sys.weights(), nullptr);
        ql::workspace ws_sys;
        ql::workspace ws_ref;

        // One window at a time.
        for (const rr_window& win : windows) {
            ql::lomb_result got;
            ql::lomb_result ref;
            ql::lomb_breakdown bd_got;
            ql::lomb_breakdown bd_ref;
            qc::op_counts outer_got;
            qc::op_counts outer_ref;
            {
                qc::count_scope scope(outer_got);
                sys.analyze_window(win.t, win.x, ws_sys, got, &bd_got);
            }
            {
                qc::count_scope scope(outer_ref);
                ql::fast_lomb(win.t, win.x, sys.engine(), c.cfg.lomb, ws_ref,
                              ref, &bd_ref);
            }
            expect_same_result(got, ref);
            expect_same_breakdown(bd_got, bd_ref);
            EXPECT_EQ(outer_got, outer_ref);
        }

        // The whole set as one batched call (lane groups of windows).
        std::vector<ql::lomb_result> got(windows.size());
        std::vector<ql::lomb_result> ref(windows.size());
        std::vector<ql::lomb_breakdown> bd_got(windows.size());
        std::vector<ql::lomb_breakdown> bd_ref(windows.size());
        std::vector<ql::window_job> jobs_got;
        std::vector<ql::window_job> jobs_ref;
        for (std::size_t i = 0; i < windows.size(); ++i) {
            jobs_got.push_back({windows[i].t, windows[i].x, &got[i], &bd_got[i]});
            jobs_ref.push_back({windows[i].t, windows[i].x, &ref[i], &bd_ref[i]});
        }
        qc::op_counts outer_got;
        qc::op_counts outer_ref;
        {
            qc::count_scope scope(outer_got);
            sys.analyze_window_batched(jobs_got, ws_sys);
        }
        {
            qc::count_scope scope(outer_ref);
            ql::fast_lomb_batched(jobs_ref, sys.engine(), c.cfg.lomb, ws_ref);
        }
        EXPECT_EQ(outer_got, outer_ref);
        for (std::size_t i = 0; i < windows.size(); ++i) {
            ASSERT_TRUE(jobs_got[i].ok);
            ASSERT_TRUE(jobs_ref[i].ok);
            expect_same_result(got[i], ref[i]);
            expect_same_breakdown(bd_got[i], bd_ref[i]);
        }
    }
}

TEST(WeightTransformTest, OneTransformPerStaircaseWindowTwoPerLagrange) {
    const std::vector<rr_window> windows = make_windows();
    const auto check = [&](const qcore::psa_config& cfg, std::size_t per_window,
                           std::size_t at_construction) {
        SCOPED_TRACE(cfg.describe());
        auto counter = std::make_shared<counting_engine>(
            qcore::psa_system::build_engine(cfg));
        const qcore::psa_system sys(cfg, counter);
        EXPECT_EQ(counter->transforms.load(), at_construction);

        counter->transforms = 0;
        ql::workspace ws;
        ql::lomb_result res;
        for (const rr_window& win : windows) sys.analyze_window(win.t, win.x, ws, res);
        EXPECT_EQ(counter->transforms.load(), per_window * windows.size());

        counter->transforms = 0;
        std::vector<ql::lomb_result> out(windows.size());
        std::vector<ql::lomb_breakdown> bd(windows.size());
        std::vector<ql::window_job> jobs;
        for (std::size_t i = 0; i < windows.size(); ++i)
            jobs.push_back({windows[i].t, windows[i].x, &out[i], &bd[i]});
        sys.analyze_window_batched(jobs, ws);
        EXPECT_EQ(counter->transforms.load(), per_window * windows.size());
    };
    for (const named_config& c : staircase_configs()) {
        SCOPED_TRACE(c.name);
        check(c.cfg, 1, 1);
        qcore::psa_config lagrange = c.cfg;
        lagrange.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
        check(lagrange, 2, 0);
    }
}

TEST(WeightTransformTest, RecordAnalysisEqualsMemoLessWelch) {
    // analyze_record hands the system's weight transform to welch_lomb:
    // every Welch segment transforms its data mesh only, and the record's
    // averaged spectrum, per-segment bands and ops equal the memo-less run
    // (a system built with no weight transform) bit for bit.
    const qpsa::physio::rr_record rec = qpsa::physio::record_for(
        qpsa::physio::make_patient(qpsa::physio::cohort::healthy, 3), 480.0);
    const auto same_bands = [](const qpsa::hrv::band_powers& a,
                               const qpsa::hrv::band_powers& b) {
        return same_bits(a.ulf, b.ulf) && same_bits(a.lf, b.lf) &&
               same_bits(a.hf, b.hf) && same_bits(a.total, b.total);
    };
    for (const named_config& c : staircase_configs()) {
        SCOPED_TRACE(c.name);
        auto counter = std::make_shared<counting_engine>(
            qcore::psa_system::build_engine(c.cfg));
        const qcore::psa_system sys(c.cfg, counter);
        const qcore::psa_system memo_less(c.cfg, counter, nullptr);
        ASSERT_NE(sys.weights(), nullptr);

        counter->transforms = 0;
        const qcore::record_analysis got =
            sys.analyze_record(rec.beat_time_s, rec.rr_s);
        const std::size_t got_transforms = counter->transforms.exchange(0);
        const qcore::record_analysis ref =
            memo_less.analyze_record(rec.beat_time_s, rec.rr_s);
        const std::size_t ref_transforms = counter->transforms.load();

        ASSERT_GE(got.segments, 5u);
        EXPECT_EQ(got_transforms, got.segments);
        EXPECT_EQ(ref_transforms, 2 * ref.segments);

        ql::lomb_result got_avg;
        ql::lomb_result ref_avg;
        got_avg.spectrum = got.averaged_spectrum;
        ref_avg.spectrum = ref.averaged_spectrum;
        expect_same_result(got_avg, ref_avg);
        EXPECT_TRUE(same_bands(got.bands, ref.bands));
        ASSERT_EQ(got.segment_bands.size(), ref.segment_bands.size());
        for (std::size_t i = 0; i < got.segment_bands.size(); ++i)
            EXPECT_TRUE(same_bands(got.segment_bands[i], ref.segment_bands[i]))
                << "segment " << i;
        EXPECT_EQ(got.segment_start_s, ref.segment_start_s);
        EXPECT_EQ(got.segments, ref.segments);
        EXPECT_EQ(got.diagnosis, ref.diagnosis);
        expect_same_breakdown(got.ops, ref.ops);
    }
}

TEST(WeightTransformTest, PlanCacheSharesOneMemoPerEngineAndOptions) {
    qpsa::service::plan_cache cache;
    const qcore::psa_config conv = qcore::psa_config::conventional();
    qcore::psa_config conv2 = conv;
    conv2.lomb.ofac = 2.0;
    const auto a = cache.system_for(conv);
    const auto b = cache.system_for(conv);
    const auto c = cache.system_for(conv2);
    ASSERT_NE(a->weights(), nullptr);
    EXPECT_EQ(a->weights(), b->weights());
    ASSERT_NE(c->weights(), nullptr);
    EXPECT_NE(a->weights(), c->weights());
    EXPECT_EQ(c->weights()->n_data, 256u);

    // A Lagrange config of the same engine gets none.
    qcore::psa_config lagrange = conv;
    lagrange.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
    EXPECT_EQ(cache.system_for(lagrange)->weights(), nullptr);
    EXPECT_EQ(cache.system_for(conv)->weights(), a->weights());
}
