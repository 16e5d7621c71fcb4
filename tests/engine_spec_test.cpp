// engine_spec / engine_registry tests: structured keys, builder registry,
// the whole-window estimator engines, and fixed-point engine parity.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "qpsa/core/engine_registry.hpp"
#include "qpsa/core/psa_system.hpp"
#include "qpsa/lomb/engine_builders.hpp"
#include "qpsa/lomb/estimator_engines.hpp"
#include "qpsa/lomb/fftw_engine.hpp"

using qpsa::real;
namespace qcore = qpsa::core;
namespace qf = qpsa::wfft;
namespace qw = qpsa::wavelet;

namespace {

/// Every built-in engine kind at mesh 512.
std::vector<qcore::psa_config> all_kinds() {
    return {
        qcore::psa_config::conventional(),
        qcore::psa_config::proposed(qf::plan::exact(512, qw::basis::haar)),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31),
        qcore::psa_config::burg_ar(),
        qcore::psa_config::direct_lomb(),
        qcore::psa_config::resampled(),
        qcore::psa_config::welch(),
    };
}

/// A 2-minute window of uniform beats with a 0.1 Hz tone riding on the
/// RR series -- every estimator should put the spectral peak there.
void tone_window(std::vector<real>& t, std::vector<real>& x) {
    const real rr = 0.5;
    const std::size_t n = static_cast<std::size_t>(121.0 / rr);
    t.resize(n);
    x.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        t[j] = static_cast<real>(j) * rr;
        x[j] = 0.8 + 0.1 * std::sin(qpsa::two_pi * 0.1 * t[j]);
    }
}

/// One window through psa_system's workspace-form analyze_window.
qpsa::lomb::lomb_result analyze(const qcore::psa_system& sys,
                                const std::vector<real>& t,
                                const std::vector<real>& x,
                                qpsa::lomb::lomb_breakdown* bd = nullptr) {
    qpsa::lomb::workspace ws;
    qpsa::lomb::lomb_result out;
    sys.analyze_window(t, x, ws, out, bd);
    return out;
}

real peak_freq(const qpsa::dsp::sampled_spectrum& s) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < s.power.size(); ++i)
        if (s.power[i] > s.power[best]) best = i;
    return s.freq_hz[best];
}

}  // namespace

TEST(EngineSpecTest, KeysDistinguishAllEngineKinds) {
    std::unordered_set<qcore::engine_key, qcore::engine_key_hash> keys;
    for (const auto& cfg : all_kinds()) keys.insert(cfg.engine_key());
    EXPECT_EQ(keys.size(), all_kinds().size());

    // Parameter changes inside one kind are distinct keys too.
    keys.insert(qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15, 512,
                                                 /*band_drop=*/true)
                    .engine_key());
    keys.insert(qcore::psa_config::burg_ar(/*order=*/24).engine_key());
    keys.insert(qcore::psa_config::conventional(256).engine_key());
    keys.insert(
        qcore::psa_config::welch(4.0, /*segment_seconds=*/40.0).engine_key());
    EXPECT_EQ(keys.size(), all_kinds().size() + 4);
}

TEST(EngineSpecTest, EquivalentConfigsShareAKey) {
    EXPECT_EQ(qcore::psa_config::conventional().engine_key(),
              qcore::psa_config::conventional().engine_key());
    EXPECT_EQ(
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31).engine_key(),
        qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31).engine_key());
    const qcore::engine_key_hash h;
    const auto a = qcore::psa_config::burg_ar().engine_key();
    const auto b = qcore::psa_config::burg_ar().engine_key();
    EXPECT_EQ(h(a), h(b));
}

TEST(EngineSpecTest, ClassificationCoversEveryKind) {
    const auto cfgs = all_kinds();
    const qcore::engine_class want[] = {
        qcore::engine_class::conventional, qcore::engine_class::wavelet,
        qcore::engine_class::fixed_q15,    qcore::engine_class::fixed_q31,
        qcore::engine_class::burg,         qcore::engine_class::direct_lomb,
        qcore::engine_class::resampled,    qcore::engine_class::welch,
    };
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(cfgs[i].kind(), want[i]) << cfgs[i].describe();
        EXPECT_FALSE(
            std::string(qcore::engine_class_name(cfgs[i].kind())).empty());
    }
}

TEST(EngineRegistryTest, BuildsEveryBuiltinKind) {
    auto& reg = qcore::engine_registry::instance();
    for (std::size_t i = 0; i < qcore::engine_spec_count; ++i) {
        // The vendor-FFT slot is builder-less by design in builds that
        // did not find FFTW3; fftw_engine_test covers its availability.
        if (i == qcore::engine_spec_index<qcore::fftw_spec> &&
            !qpsa::lomb::fftw_engine_available())
            continue;
        EXPECT_TRUE(reg.has_builder(i)) << "spec index " << i;
    }

    for (const auto& cfg : all_kinds()) {
        const auto engine = reg.build(cfg);
        ASSERT_NE(engine, nullptr) << cfg.describe();
        EXPECT_EQ(engine->size(), cfg.lomb.mesh_size) << cfg.describe();
        EXPECT_FALSE(engine->name().empty());
    }
}

TEST(EngineRegistryTest, LeafRegistrationOverridesABuilder) {
    auto& reg = qcore::engine_registry::instance();
    bool called = false;
    reg.register_spec<qcore::direct_lomb_spec>(
        [&called](const qcore::psa_config& cfg) {
            called = true;
            return std::make_shared<const qpsa::lomb::direct_lomb_engine>(
                cfg.lomb.mesh_size);
        });
    const qcore::psa_system sys(qcore::psa_config::direct_lomb());
    EXPECT_TRUE(called);
    // Restore the stock builders for the rest of the binary.
    qpsa::lomb::register_builtin_engines(reg);
}

TEST(WholeWindowEngineTest, EveryKindLocatesTheToneBin) {
    std::vector<real> t;
    std::vector<real> x;
    tone_window(t, x);
    for (const auto& cfg : all_kinds()) {
        const qcore::psa_system sys(cfg);
        const auto res = analyze(sys, t, x);
        const real df = res.spectrum.freq_hz[1] - res.spectrum.freq_hz[0];
        EXPECT_NEAR(peak_freq(res.spectrum), 0.1, 2.0 * df + 1e-12)
            << cfg.describe();
        EXPECT_EQ(res.spectrum.power.size(), res.spectrum.freq_hz.size());
    }
}

TEST(WholeWindowEngineTest, EstimatorsCountOperations) {
    std::vector<real> t;
    std::vector<real> x;
    tone_window(t, x);
    for (const auto& cfg : {qcore::psa_config::burg_ar(),
                            qcore::psa_config::direct_lomb(),
                            qcore::psa_config::resampled(),
                            qcore::psa_config::welch()}) {
        const qcore::psa_system sys(cfg);
        qpsa::lomb::lomb_breakdown bd;
        (void)analyze(sys, t, x, &bd);
        EXPECT_GT(bd.fft.total(), 0u) << cfg.describe();
        EXPECT_GT(bd.fft_stats.ops.total(), 0u) << cfg.describe();
        EXPECT_TRUE(sys.engine().whole_window()) << cfg.describe();
    }
}

TEST(WholeWindowEngineTest, MeshPathIsAContractViolation) {
    const qpsa::lomb::burg_engine eng(512, 16, 4.0);
    std::vector<qpsa::cplx> in(512);
    std::vector<qpsa::cplx> out(512);
    EXPECT_THROW(eng.forward(in, out, nullptr), qpsa::contract_error);
}

TEST(FixedEngineTest, BandPowersTrackTheDoubleEngine) {
    std::vector<real> t;
    std::vector<real> x;
    tone_window(t, x);

    const qcore::psa_system ref(qcore::psa_config::conventional());
    const auto want = analyze(ref, t, x);
    const auto want_bands =
        qpsa::hrv::compute_band_powers(want.spectrum, qpsa::hrv::band_limits{});

    struct case_def {
        qcore::fixed_format format;
        real tol;
    };
    // The tolerances mirror fixed_wfft_test: Q15 on a 512 transform stays
    // within a couple of percent; Q31 is quantization-noise dominated.
    for (const auto& c : {case_def{qcore::fixed_format::q15, 0.05},
                          case_def{qcore::fixed_format::q31, 1e-4}}) {
        const qcore::psa_system sys(qcore::psa_config::fixed_wavelet(c.format));
        const auto got = analyze(sys, t, x);
        const auto got_bands = qpsa::hrv::compute_band_powers(
            got.spectrum, qpsa::hrv::band_limits{});
        EXPECT_NEAR(got_bands.lf / want_bands.lf, 1.0, c.tol)
            << qpsa::core::fixed_format_name(c.format);
        EXPECT_NEAR(got_bands.hf / want_bands.hf, 1.0, c.tol)
            << qpsa::core::fixed_format_name(c.format);
    }
}

TEST(FixedEngineTest, Q31IsStrictlyCloserThanQ15) {
    std::vector<real> t;
    std::vector<real> x;
    tone_window(t, x);
    const qcore::psa_system ref(qcore::psa_config::conventional());
    const auto want = analyze(ref, t, x);

    auto spectrum_err = [&](qcore::fixed_format f) {
        const qcore::psa_system sys(qcore::psa_config::fixed_wavelet(f));
        const auto got = analyze(sys, t, x);
        real num = 0.0;
        real den = 0.0;
        for (std::size_t i = 0; i < want.spectrum.power.size(); ++i) {
            const real d = got.spectrum.power[i] - want.spectrum.power[i];
            num += d * d;
            den += want.spectrum.power[i] * want.spectrum.power[i];
        }
        return std::sqrt(num / den);
    };
    const real e15 = spectrum_err(qcore::fixed_format::q15);
    const real e31 = spectrum_err(qcore::fixed_format::q31);
    EXPECT_LT(e31, e15);
    EXPECT_GT(e15, 0.0);
}

TEST(FixedEngineTest, PrunedVariantsReportStats) {
    std::vector<real> t;
    std::vector<real> x;
    tone_window(t, x);
    const qcore::psa_system sys(qcore::psa_config::fixed_wavelet(
        qcore::fixed_format::q15, 512, /*band_drop=*/true,
        /*twiddle_fraction=*/0.4));
    qpsa::lomb::lomb_breakdown bd;
    (void)analyze(sys, t, x, &bd);
    EXPECT_TRUE(bd.fft_stats.band_dropped);
    EXPECT_GT(bd.fft_stats.terms_total, 0u);
    EXPECT_GT(bd.fft_stats.terms_pruned_factor, 0u);
    EXPECT_GT(bd.fft.total(), 0u);
}
