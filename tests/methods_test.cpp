// Tests for the alternative spectral estimators (resampled FFT, Burg AR),
// time-domain HRV metrics, the streaming monitor and the battery model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/dsp/burg.hpp"
#include "qpsa/energy/battery.hpp"
#include "qpsa/hrv/time_domain.hpp"
#include "qpsa/lomb/lomb_direct.hpp"
#include "qpsa/lomb/resampled_psd.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/util/stats.hpp"

using qpsa::real;
namespace ql = qpsa::lomb;
namespace qd = qpsa::dsp;
namespace qh = qpsa::hrv;
namespace qe = qpsa::energy;

namespace {

struct series {
    std::vector<real> t;
    std::vector<real> x;
};

series uneven_tone(std::size_t n, real f_hz, real amp, std::uint64_t seed) {
    qpsa::util::rng r(seed);
    series s;
    real t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += 0.85 + r.uniform(-0.12, 0.12);
        s.t.push_back(t);
        s.x.push_back(0.85 + amp * std::sin(qpsa::two_pi * f_hz * t) +
                      r.gaussian(0.004));
    }
    return s;
}

}  // namespace

TEST(ResampleTest, LinearInterpolationHitsKnots) {
    const std::vector<real> t = {0.0, 1.0, 2.0, 3.0};
    const std::vector<real> x = {0.0, 2.0, 4.0, 6.0};
    const auto grid = ql::resample_linear(t, x, 2.0, 100);
    ASSERT_GE(grid.size(), 7u);
    EXPECT_NEAR(grid[0], 0.0, 1e-12);
    EXPECT_NEAR(grid[1], 1.0, 1e-12);  // t=0.5 between 0 and 2
    EXPECT_NEAR(grid[2], 2.0, 1e-12);
    EXPECT_NEAR(grid[6], 6.0, 1e-12);
}

TEST(ResampledPsdTest, RecoversTone) {
    const auto s = uneven_tone(300, 0.25, 0.05, 1);
    const auto psd = ql::resampled_psd(s.t, s.x);
    EXPECT_NEAR(qd::peak_frequency(psd, 0.1, 0.4), 0.25, 0.02);
}

TEST(ResampledPsdTest, InterpolationAttenuatesHighFrequencies) {
    // The paper's motivation for Lomb: "interpolation and re-sampling ...
    // may alter the frequency content".  Quantify it: the HF/LF tone
    // power ratio recovered by the traditional estimator shrinks as the
    // resampling rate drops toward the band of interest (linear
    // interpolation acts as a low-pass), while both tones have equal
    // amplitude in the underlying series.
    qpsa::util::rng r(2);
    series s;
    real t = 0.0;
    for (std::size_t i = 0; i < 500; ++i) {
        t += 0.85 + r.uniform(-0.12, 0.12);
        s.t.push_back(t);
        s.x.push_back(0.85 + 0.05 * std::sin(qpsa::two_pi * 0.09 * t) +
                      0.05 * std::sin(qpsa::two_pi * 0.38 * t) +
                      r.gaussian(0.002));
    }
    // Within-method HF/LF band ratio cancels the differing normalization
    // conventions, isolating the frequency-response bias.  The tone at
    // 0.38 Hz sits near the mean beat Nyquist (~0.59 Hz), where linear
    // interpolation between ~0.85 s knots visibly smooths the waveform;
    // the Lomb estimator fits the sinusoid at the true sample instants
    // and keeps the tone's relative power.
    real hf_lf_resamp = 0.0;
    {
        ql::resampled_psd_options opt;
        opt.fft_size = 2048;
        const auto spec = ql::resampled_psd(s.t, s.x, opt);
        hf_lf_resamp = qd::band_power(spec, 0.35, 0.41) /
                       qd::band_power(spec, 0.06, 0.12);
    }
    real hf_lf_lomb = 0.0;
    {
        const auto freqs =
            ql::lomb_frequency_grid(s.t.back() - s.t.front(), 800, 4.0);
        const auto spec = ql::lomb_direct(s.t, s.x, freqs);
        hf_lf_lomb = qd::band_power(spec, 0.35, 0.41) /
                     qd::band_power(spec, 0.06, 0.12);
    }
    EXPECT_LT(hf_lf_resamp, 0.9 * hf_lf_lomb)
        << "interpolation must bias the near-Nyquist tone downward";
}

TEST(BurgTest, FitMatchesTwoPassRecursionBitForBit) {
    // burg_fit against the textbook recursion in its operation order: per
    // order, one pass of reflection sums, then the coefficient update, then
    // a descending pass updating the prediction errors.  The lattice kernel
    // may restructure its passes but must reproduce every bit.
    const auto two_pass = [](const std::vector<real>& x, std::size_t order) {
        const std::size_t n = x.size();
        std::vector<real> f = x, b = x, a(order + 1, 0.0), prev(order + 1);
        a[0] = 1.0;
        real e = 0.0;
        for (const real v : x) e = e + v * v;
        e = e / static_cast<real>(n);
        for (std::size_t m = 1; m <= order; ++m) {
            real num = 0.0, den = 0.0;
            for (std::size_t i = m; i < n; ++i) {
                num = num + f[i] * b[i - 1];
                den = den + (f[i] * f[i] + b[i - 1] * b[i - 1]);
            }
            const real k = 0.0 < den ? (-2.0 * num) / den : 0.0;
            for (std::size_t j = 0; j < m; ++j) prev[j] = a[j];
            for (std::size_t j = 1; j <= m; ++j)
                a[j] = (j < m ? prev[j] : 0.0) + k * (j == m ? 1.0 : prev[m - j]);
            for (std::size_t i = n - 1; i >= m; --i) {
                const real fi = f[i], bi = b[i - 1];
                f[i] = fi + k * bi;
                b[i] = bi + k * fi;
            }
            e = e * (1.0 - k * k);
        }
        return std::make_pair(std::vector<real>(a.begin() + 1, a.end()), e);
    };
    qpsa::util::rng r(29);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t order = 1 + static_cast<std::size_t>(trial % 16);
        const std::size_t n = 2 * order + 1 + static_cast<std::size_t>(r.uniform_int(0, 500));
        std::vector<real> x(n, 0.0);
        const real phi = r.uniform(-0.95, 0.95);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = (i > 0 ? phi * x[i - 1] : 0.0) + r.gaussian(1.0);
        if (trial % 7 == 3) std::fill(x.begin() + static_cast<std::ptrdiff_t>(n / 2), x.end(), 0.0);
        const auto want = two_pass(x, order);
        const auto got = qd::burg_fit(x, order);
        ASSERT_EQ(got.a.size(), order);
        for (std::size_t j = 0; j < order; ++j)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.a[j]),
                      std::bit_cast<std::uint64_t>(want.first[j]))
                << "trial " << trial << " a_" << j + 1;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.noise_var),
                  std::bit_cast<std::uint64_t>(want.second))
            << "trial " << trial;
    }
}

TEST(BurgTest, FitsKnownAr1Process) {
    // x_t = 0.8 x_{t-1} + w_t  ->  a_1 should be ~ -0.8.
    qpsa::util::rng r(4);
    std::vector<real> x(4000, 0.0);
    for (std::size_t i = 1; i < x.size(); ++i)
        x[i] = 0.8 * x[i - 1] + r.gaussian(1.0);
    const auto model = qd::burg_fit(x, 1);
    EXPECT_NEAR(model.a[0], -0.8, 0.03);
    EXPECT_NEAR(model.noise_var, 1.0, 0.1);
}

TEST(BurgTest, SpectrumPeaksAtResonance) {
    // AR(2) resonator at ~0.2 of fs.
    const real rho = 0.95;
    const real theta = qpsa::two_pi * 0.2;
    qpsa::util::rng r(5);
    std::vector<real> x(6000, 0.0);
    for (std::size_t i = 2; i < x.size(); ++i)
        x[i] = 2.0 * rho * std::cos(theta) * x[i - 1] - rho * rho * x[i - 2] +
               r.gaussian(1.0);
    const auto model = qd::burg_fit(x, 2);
    std::vector<real> freqs;
    for (int k = 1; k < 100; ++k) freqs.push_back(0.005 * k);  // fs = 1
    const auto psd = qd::burg_psd(model, 1.0, freqs);
    EXPECT_NEAR(qd::peak_frequency(psd, 0.05, 0.45), 0.2, 0.01);
}

TEST(BurgTest, HrvBandsFromArModel) {
    const auto s = uneven_tone(400, 0.3, 0.06, 6);
    auto grid = ql::resample_linear(s.t, s.x, 4.0, 4096);
    const real mu = qpsa::util::mean(grid);
    for (auto& v : grid) v -= mu;
    const auto model = qd::burg_fit(grid, 12);
    std::vector<real> freqs;
    for (int k = 1; k <= 200; ++k) freqs.push_back(0.0025 * k);
    const auto psd = qd::burg_psd(model, 4.0, freqs);
    EXPECT_NEAR(qd::peak_frequency(psd, 0.15, 0.45), 0.3, 0.03);
}

TEST(BurgTest, PsdTallyMatchesClosedForm) {
    // The energy pricing of burg-ar reads this tally: per frequency, one
    // cos and one sin, p - 1 Horner steps of 4 muls and 3 adds, plus
    // w = 2 pi f / fs, z a_p, 1 + u, |D|^2, its floor and s2 / (fs |D|^2).
    for (const auto& [p, nf] : {std::pair<std::uint64_t, std::uint64_t>{1, 7},
                               {16, 63}}) {
        SCOPED_TRACE(testing::Message() << "p = " << p << ", nf = " << nf);
        const qd::burg_model model{std::vector<real>(p, -0.5 / p), 1.0};
        std::vector<real> freqs;
        for (std::uint64_t k = 1; k <= nf; ++k) freqs.push_back(0.006 * k);
        qpsa::counting::op_counts ops;
        {
            qpsa::counting::count_scope scope(ops);
            (void)qd::burg_psd(model, 4.0, freqs);
        }
        EXPECT_EQ(ops, (qpsa::counting::op_counts{.adds = (3 * p - 1) * nf,
                                                  .muls = (4 * p + 2) * nf,
                                                  .divs = 2 * nf,
                                                  .cmps = nf,
                                                  .trigs = 2 * nf}));
    }
}

TEST(TimeDomainTest, ConstantSeries) {
    std::vector<real> rr(50, 0.8);
    const auto m = qh::compute_time_domain(rr);
    EXPECT_NEAR(m.mean_rr_s, 0.8, 1e-12);
    EXPECT_NEAR(m.mean_hr_bpm, 75.0, 1e-9);
    EXPECT_NEAR(m.sdnn_s, 0.0, 1e-12);
    EXPECT_NEAR(m.rmssd_s, 0.0, 1e-12);
    EXPECT_NEAR(m.pnn50, 0.0, 1e-12);
}

TEST(TimeDomainTest, AlternatingSeries) {
    // RR alternates 0.8 / 0.9: every successive difference is 100 ms.
    std::vector<real> rr;
    for (int i = 0; i < 60; ++i) rr.push_back(i % 2 == 0 ? 0.8 : 0.9);
    const auto m = qh::compute_time_domain(rr);
    EXPECT_NEAR(m.rmssd_s, 0.1, 1e-9);
    EXPECT_NEAR(m.pnn50, 1.0, 1e-12);
    EXPECT_NEAR(m.sdnn_s, 0.05, 1e-9);
}

TEST(TimeDomainTest, RsaPatientHasHigherRmssd) {
    // Respiratory (HF) modulation drives successive differences, so the
    // sinus-arrhythmia cohort should show clearly higher RMSSD.
    const auto sa = qpsa::physio::record_for(
        qpsa::physio::make_patient(qpsa::physio::cohort::sinus_arrhythmia, 0),
        300.0);
    auto hc_patient = qpsa::physio::make_patient(qpsa::physio::cohort::healthy, 0);
    hc_patient.params.a_hf *= 0.3;  // weak respiratory component
    const auto hc = qpsa::physio::record_for(hc_patient, 300.0);
    const auto m_sa = qh::compute_time_domain(sa.rr_s);
    const auto m_hc = qh::compute_time_domain(hc.rr_s);
    EXPECT_GT(m_sa.rmssd_s, m_hc.rmssd_s);
}

TEST(StreamingMonitorTest, EmitsWindowsAtHopCadence) {
    qpsa::core::streaming_monitor mon(qpsa::core::psa_config::conventional());
    const auto rec = qpsa::physio::record_for(
        qpsa::physio::make_patient(qpsa::physio::cohort::sinus_arrhythmia, 1),
        600.0);
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    // 600 s record, 120 s windows, 60 s hop -> ~8 complete windows.
    EXPECT_GE(mon.windows_completed(), 7u);
    EXPECT_LE(mon.windows_completed(), 9u);
    EXPECT_EQ(mon.beats_seen(), rec.beats());

    std::size_t polled = 0;
    real last_start = -1.0;
    while (auto rep = mon.poll()) {
        ++polled;
        EXPECT_GT(rep->t_start, last_start);
        last_start = rep->t_start;
        EXPECT_GE(rep->beats, 32u);
        EXPECT_GT(rep->ops.arithmetic(), 0u);
    }
    EXPECT_EQ(polled, mon.windows_completed());
}

TEST(StreamingMonitorTest, MatchesBatchAnalysisDiagnosis) {
    const qpsa::core::psa_config cfg = qpsa::core::psa_config::conventional();
    qpsa::core::streaming_monitor mon(cfg);
    const auto rec = qpsa::physio::record_for(
        qpsa::physio::make_patient(qpsa::physio::cohort::sinus_arrhythmia, 2),
        900.0);
    for (std::size_t i = 0; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    EXPECT_GT(mon.arrhythmia_fraction(), 0.9);
}

TEST(StreamingMonitorTest, ConfigSwapTakesEffect) {
    qpsa::core::streaming_monitor mon(qpsa::core::psa_config::conventional());
    const auto rec = qpsa::physio::record_for(
        qpsa::physio::make_patient(qpsa::physio::cohort::sinus_arrhythmia, 3),
        700.0);
    std::size_t i = 0;
    for (; i < rec.beats() && rec.beat_time_s[i] < 350.0; ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    const auto ops_conv = mon.history().back().ops.arithmetic();

    mon.set_config(qpsa::core::psa_config::proposed(
        qpsa::wfft::plan::static_pruned(512, qpsa::wavelet::basis::haar,
                                        qpsa::wfft::twiddle_set::set3)));
    for (; i < rec.beats(); ++i)
        mon.push_beat(rec.beat_time_s[i], rec.rr_s[i]);
    const auto ops_prop = mon.history().back().ops.arithmetic();
    EXPECT_LT(ops_prop, ops_conv);
}

TEST(StreamingMonitorTest, RejectsNonMonotoneBeats) {
    qpsa::core::streaming_monitor mon(qpsa::core::psa_config::conventional());
    mon.push_beat(1.0, 0.8);
    EXPECT_THROW(mon.push_beat(0.5, 0.8), qpsa::contract_error);
}

TEST(BatteryTest, LifetimeDecreasesWithWork) {
    const qe::node_model node;
    qpsa::counting::op_counts small;
    small.adds = 20000;
    small.muls = 8000;
    qpsa::counting::op_counts big = small;
    big.adds *= 4;
    big.muls *= 4;
    const auto l_small = qe::estimate_lifetime(node, small);
    const auto l_big = qe::estimate_lifetime(node, big);
    EXPECT_GT(l_small.lifetime_days, l_big.lifetime_days);
    EXPECT_GT(l_small.lifetime_days, 0.0);
}

TEST(BatteryTest, VfsExtendsLifetime) {
    const qe::node_model node;
    qpsa::counting::op_counts baseline;
    baseline.adds = 400000;
    baseline.muls = 150000;
    qpsa::counting::op_counts pruned;
    pruned.adds = 200000;
    pruned.muls = 75000;
    const real deadline = node.run_nominal(baseline).time_s;
    const auto nominal = qe::estimate_lifetime(node, pruned);
    const auto vfs = qe::estimate_lifetime_vfs(node, pruned, deadline);
    EXPECT_GT(vfs.lifetime_days, nominal.lifetime_days);
}

TEST(BatteryTest, SharesAreConsistent) {
    const qe::node_model node;
    qpsa::counting::op_counts ops;
    ops.adds = 100000;
    ops.muls = 40000;
    const qe::battery_config cfg;
    const auto est = qe::estimate_lifetime(node, ops, cfg);
    EXPECT_GT(est.psa_share, 0.0);
    EXPECT_LT(est.psa_share, 1.0);
    EXPECT_NEAR(est.total_energy_per_window_j,
                est.psa_energy_per_window_j + cfg.acquisition_j + cfg.radio_j,
                1e-12);
    // Raw-ECG streaming costs orders of magnitude more radio energy than
    // the local-analysis summary packet.
    EXPECT_GT(qe::streaming_radio_j_per_window(), 20.0 * cfg.radio_j);
}
