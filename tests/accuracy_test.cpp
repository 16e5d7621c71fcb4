// Accuracy contract for the Burg AR model PSD.
//
// A change to an engine's arithmetic may move its output bits; what it
// may not move is its distance from the estimator it implements.  This
// suite fixes that distance for Burg with one written tolerance: every
// PSD value, and every LF, HF and LF/HF band figure the served burg-ar
// system derives from them, stays within k_rel_tol (relative) of a
// long-double direct evaluation of the same fitted model,
//
//     P(f) = s2 / (fs |1 + sum_k a_k e^{-2 pi i f k / fs}|^2),
//
// over windows of the physio bank (both cohorts) and over closed-form
// AR(1) / AR(2) models, including order 1 and a pole at radius 0.99.
// The reference shares only the fitted model with the code under test,
// so any evaluation order (direct sum, Horner, interleaved chains)
// passes as long as it stays this accurate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <variant>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/dsp/burg.hpp"
#include "qpsa/hrv/bands.hpp"
#include "qpsa/lomb/resampled_psd.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/util/stats.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace qd = qpsa::dsp;
namespace qh = qpsa::hrv;
namespace ql = qpsa::lomb;
namespace qp = qpsa::physio;

namespace {

/// The contract: largest relative error of a PSD value or band figure.
constexpr real k_rel_tol = 1e-11;

constexpr real k_window_s = 120.0;
constexpr real k_hop_s = 60.0;
constexpr real k_record_s = 900.0;
constexpr unsigned k_patients_per_cohort = 8;

constexpr long double k_pi_l = 3.141592653589793238462643383279502884L;

/// The AR PSD of `m` at f, summed term by term in long double.
long double direct_psd(const qd::burg_coeffs& m, real fs_hz, real f_hz) {
    const long double w = 2.0L * k_pi_l * f_hz / fs_hz;
    long double re = 1.0L;
    long double im = 0.0L;
    for (std::size_t k = 0; k < m.order(); ++k) {
        const long double ang = w * static_cast<long double>(k + 1);
        re += m.a[k] * std::cos(ang);
        im -= m.a[k] * std::sin(ang);
    }
    return m.noise_var / (fs_hz * (re * re + im * im));
}

real rel_err(long double got, long double ref) {
    return static_cast<real>(std::fabs(got - ref) / std::fabs(ref));
}

struct rr_window {
    std::vector<real> t;
    std::vector<real> x;
};

/// Windows [m * hop, m * hop + W) of every record of both cohorts.
std::vector<rr_window> bank_windows() {
    std::vector<rr_window> out;
    for (const qp::cohort c :
         {qp::cohort::sinus_arrhythmia, qp::cohort::healthy}) {
        for (unsigned i = 0; i < k_patients_per_cohort; ++i) {
            const qp::rr_record rec =
                qp::record_for(qp::make_patient(c, i), k_record_s);
            for (real w0 = 0.0; w0 + k_window_s <= rec.duration_s();
                 w0 += k_hop_s) {
                rr_window w;
                for (std::size_t j = 0; j < rec.beats(); ++j) {
                    const real bt = rec.beat_time_s[j];
                    if (bt < w0 || bt >= w0 + k_window_s) continue;
                    w.t.push_back(bt);
                    w.x.push_back(rec.rr_s[j]);
                }
                out.push_back(std::move(w));
            }
        }
    }
    return out;
}

/// The model the burg-ar engine fits to a window: the uniform resampling
/// at the spec's rate, mean removed, at the spec's order clamped to the
/// series length.
qd::burg_model engine_model(const qcore::psa_config& cfg,
                            const rr_window& w) {
    const auto& spec = std::get<qcore::burg_spec>(cfg.spec);
    std::vector<real> series = ql::resample_linear(
        w.t, w.x, spec.resample_hz, 8 * cfg.lomb.mesh_size);
    const real mu = qpsa::util::mean(series);
    for (real& v : series) v -= mu;
    const std::size_t order = std::min(spec.order, series.size() / 2 - 1);
    return qd::burg_fit(series, order);
}

/// Worst relative error of burg_psd against direct_psd on `freqs`.
real worst_psd_error(const qd::burg_coeffs& m, real fs_hz,
                     const std::vector<real>& freqs) {
    const qd::sampled_spectrum got = qd::burg_psd(m, fs_hz, freqs);
    real worst = 0.0;
    for (std::size_t i = 0; i < freqs.size(); ++i)
        worst = std::max(worst, rel_err(got.power[i],
                                        direct_psd(m, fs_hz, freqs[i])));
    return worst;
}

std::vector<real> uniform_freqs(real fs_hz, std::size_t n) {
    std::vector<real> f;
    for (std::size_t k = 0; k <= n; ++k)
        f.push_back(0.5 * fs_hz * static_cast<real>(k) / static_cast<real>(n));
    return f;
}

}  // namespace

TEST(BurgAccuracyTest, ModelPsdMatchesLongDoubleOverPhysioBank) {
    const qcore::psa_config cfg = qcore::psa_config::burg_ar();
    const real fs = std::get<qcore::burg_spec>(cfg.spec).resample_hz;
    const qcore::psa_system sys(cfg);
    ql::workspace ws;
    ql::lomb_result res;

    real worst_psd = 0.0;
    real worst_sys = 0.0;
    real worst_band = 0.0;
    const std::vector<rr_window> windows = bank_windows();
    ASSERT_GE(windows.size(), 200u);
    for (const rr_window& w : windows) {
        ASSERT_GT(w.t.size(), 100u);
        sys.analyze_window(w.t, w.x, ws, res);
        const std::vector<real>& freqs = res.spectrum.freq_hz;
        const qd::burg_model model = engine_model(cfg, w);

        // The model PSD alone.
        worst_psd = std::max(worst_psd, worst_psd_error(model, fs, freqs));

        // The served spectrum: the model PSD in the normalized-periodogram
        // convention (N / (2 var) of the analyzed window).
        const real norm = static_cast<real>(w.x.size()) /
                          (2.0 * qpsa::util::variance(w.x));
        qd::sampled_spectrum ref;
        ref.freq_hz = freqs;
        for (const real f : freqs) {
            const long double p = direct_psd(model, fs, f) * norm;
            worst_sys = std::max(
                worst_sys, rel_err(res.spectrum.power[ref.power.size()], p));
            ref.power.push_back(static_cast<real>(p));
        }

        // The band figures the system reports from it.
        const qh::band_powers got = qh::compute_band_powers(res.spectrum, cfg.bands);
        const qh::band_powers want = qh::compute_band_powers(ref, cfg.bands);
        ASSERT_GT(want.lf, 0.0);
        ASSERT_GT(want.hf, 0.0);
        worst_band = std::max({worst_band, rel_err(got.lf, want.lf),
                               rel_err(got.hf, want.hf),
                               rel_err(got.lf_hf_ratio(), want.lf_hf_ratio())});
    }
    std::printf("burg accuracy over %zu windows: psd %.3g, served %.3g, "
                "bands %.3g (tolerance %.0g)\n",
                windows.size(), worst_psd, worst_sys, worst_band, k_rel_tol);
    EXPECT_LE(worst_psd, k_rel_tol);
    EXPECT_LE(worst_sys, k_rel_tol);
    EXPECT_LE(worst_band, k_rel_tol);
}

TEST(BurgAccuracyTest, Ar1MatchesClosedForm) {
    // |1 + a e^{-iw}|^2 = 1 + 2 a cos w + a^2.  Order 1 leaves no
    // coefficient past the first, whatever the evaluation scheme.
    for (const real a : {-0.9, -0.5, 0.3, 0.99}) {
        SCOPED_TRACE(a);
        const qd::burg_model m{{a}, 0.7};
        for (const real fs : {1.0, 4.0}) {
            const std::vector<real> freqs = uniform_freqs(fs, 64);
            const qd::sampled_spectrum got = qd::burg_psd(m, fs, freqs);
            for (std::size_t i = 0; i < freqs.size(); ++i) {
                const long double w = 2.0L * k_pi_l * freqs[i] / fs;
                const long double a_l = a;
                const long double want =
                    0.7L / (fs * (1.0L + 2.0L * a_l * std::cos(w) + a_l * a_l));
                EXPECT_LE(rel_err(got.power[i], want), k_rel_tol)
                    << "f = " << freqs[i] << ", fs = " << fs;
            }
            EXPECT_LE(worst_psd_error(m, fs, freqs), k_rel_tol);
        }
    }
}

TEST(BurgAccuracyTest, Ar2MatchesClosedFormUpToAPoleAtRadius099) {
    // Poles r e^{+-i theta}: a1 = -2 r cos theta, a2 = r^2, and
    // |1 + a1 z + a2 z^2|^2 = 1 + a1^2 + a2^2 + 2 a1 (1 + a2) cos w
    //                         + 2 a2 cos 2w   (exact in the coefficients).
    const real fs = 4.0;
    for (const real r : {0.5, 0.9, 0.99}) {
        for (const real f0 : {0.1, 0.25, 1.0}) {
            SCOPED_TRACE(testing::Message() << "r = " << r << ", f0 = " << f0);
            const real theta = qpsa::two_pi * f0 / fs;
            const qd::burg_model m{{-2.0 * r * std::cos(theta), r * r}, 1.3};
            std::vector<real> freqs = uniform_freqs(fs, 200);
            freqs.push_back(f0);  // the resonance itself
            const qd::sampled_spectrum got = qd::burg_psd(m, fs, freqs);
            const long double a1 = m.a[0];
            const long double a2 = m.a[1];
            for (std::size_t i = 0; i < freqs.size(); ++i) {
                const long double w = 2.0L * k_pi_l * freqs[i] / fs;
                const long double mag2 = 1.0L + a1 * a1 + a2 * a2 +
                                         2.0L * a1 * (1.0L + a2) * std::cos(w) +
                                         2.0L * a2 * std::cos(2.0L * w);
                EXPECT_LE(rel_err(got.power[i], 1.3L / (fs * mag2)), k_rel_tol)
                    << "f = " << freqs[i];
            }
            EXPECT_LE(worst_psd_error(m, fs, freqs), k_rel_tol);
            if (r == 0.99) {
                // The resonance really is sharp: the peak stands over three
                // decades above the Nyquist end of the spectrum.
                EXPECT_GT(got.power.back() / got.power[freqs.size() - 2], 1e3);
            }
        }
    }
}
