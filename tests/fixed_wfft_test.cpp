// Tests for the fixed-point wavelet FFT (precision-scalable datapath).
//
// The transform runs as a raw-integer lane walk; the reference below is
// the fixed_point<F>-operator walk it replaced, kept here as the oracle.
// Every output of the walk (any F, size, pruning, shift mode, lane count
// and input range) must equal the oracle's bytewise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/dft.hpp"
#include "qpsa/lomb/fixed_engine.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/fixed_wavelet_fft.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qf = qpsa::wfft;
namespace ql = qpsa::lomb;
namespace qu = qpsa::util;
namespace qcnt = qpsa::counting;

/// The lane walk and raw conversion are private to the transform (the
/// engine adapter is their one production caller); the oracle tests reach
/// them through this peer.
struct qpsa::wfft::fixed_wavelet_fft_test_peer {
    template <unsigned F>
    using raw = typename fixed_wavelet_fft<F>::scalar::raw_type;

    template <unsigned F>
    static raw<F> to_raw(double v) {
        return fixed_wavelet_fft<F>::to_raw(v);
    }

    template <unsigned F, std::size_t L>
    static void forward_lanes(const fixed_wavelet_fft<F>& fft, raw<F>* re,
                              raw<F>* im, util::arena& scratch) {
        fft.template forward_lanes<L>(re, im, re, im, scratch);
    }

    template <unsigned F>
    static simd::fixed_plan<raw<F>> plan(const fixed_wavelet_fft<F>& fft) {
        return fft.plan();
    }

    template <unsigned F>
    static std::size_t walk_scratch(const fixed_wavelet_fft<F>& fft,
                                    std::size_t lanes) {
        return fft.walk_scratch(lanes);
    }
};
using peer = qf::fixed_wavelet_fft_test_peer;

namespace {

// ------------------------------------------------------------------ oracle

/// The fixed_point<F>-operator walk: Haar stage, radix-2 sub-FFTs and the
/// pruned diagonal combine, every op a saturating fixed_point<F> operator.
template <unsigned F>
class oracle_fixed_wfft {
public:
    using scalar = qpsa::fp::fixed_point<F>;
    using fcplx = qpsa::fp::basic_complex<scalar>;
    using config = typename qf::fixed_wavelet_fft<F>::config;

    explicit oracle_fixed_wfft(config cfg) : cfg_(cfg) { build_tables(); }

    void forward(std::span<const fcplx> in, std::span<fcplx> out) const {
        const std::size_t half = cfg_.n / 2;
        std::vector<fcplx> a(half), d(half);
        const scalar h(0.5);
        for (std::size_t k = 0; k < half; ++k) {
            fcplx s{in[2 * k].re + in[2 * k + 1].re,
                    in[2 * k].im + in[2 * k + 1].im};
            fcplx t{in[2 * k].re - in[2 * k + 1].re,
                    in[2 * k].im - in[2 * k + 1].im};
            if (cfg_.interstage_shift) {
                s = scale(s, h);
                t = scale(t, h);
            }
            a[k] = s;
            d[k] = t;
        }
        std::vector<fcplx> a_fft(half), d_fft;
        sub_fft(a, a_fft);
        if (!cfg_.band_drop) {
            d_fft.resize(half);
            sub_fft(d, d_fft);
        }
        for (std::size_t m = 0; m < half; ++m) {
            fcplx top = mul_pruned(fa_[m], a_fft[m], pruned_a_[m]);
            fcplx bot = mul_pruned(fc_[m], a_fft[m], pruned_c_[m]);
            if (!cfg_.band_drop) {
                const fcplx tb = mul_pruned(fb_[m], d_fft[m], pruned_b_[m]);
                const fcplx td = mul_pruned(fd_[m], d_fft[m], pruned_d_[m]);
                top = {top.re + tb.re, top.im + tb.im};
                bot = {bot.re + td.re, bot.im + td.im};
            }
            out[m] = top;
            out[m + half] = bot;
        }
    }

    /// Largest |raw| of a butterfly sum before halving over every forward
    /// so far (what a narrow lane must not add in place).
    double peak_sum() const { return peak_sum_; }

    std::size_t pruned_terms() const {
        const auto count = [](const std::vector<bool>& v) {
            std::size_t c = 0;
            for (const bool p : v) c += p ? 1 : 0;
            return c;
        };
        std::size_t total = count(pruned_a_) + count(pruned_c_);
        if (!cfg_.band_drop) total += count(pruned_b_) + count(pruned_d_);
        return total;
    }

private:
    static fcplx scale(fcplx v, scalar s) { return {v.re * s, v.im * s}; }
    static fcplx mul_pruned(fcplx f, fcplx v, bool pruned) {
        if (pruned) return {scalar(0.0), scalar(0.0)};
        return f * v;
    }

    void sub_fft(std::span<const fcplx> in, std::span<fcplx> out) const {
        const std::size_t m = in.size();
        for (std::size_t i = 0; i < m; ++i) out[bitrev_[i]] = in[i];
        const scalar h(0.5);
        for (std::size_t len = 2; len <= m; len <<= 1) {
            const std::size_t half_len = len / 2;
            const std::size_t step = m / len;
            for (std::size_t base = 0; base < m; base += len) {
                for (std::size_t k = 0; k < half_len; ++k) {
                    const fcplx w = subtw_[k * step];
                    const fcplx t = w * out[base + k + half_len];
                    const fcplx u = out[base + k];
                    fcplx x0{u.re + t.re, u.im + t.im};
                    fcplx x1{u.re - t.re, u.im - t.im};
                    for (const scalar v : {x0.re, x0.im, x1.re, x1.im})
                        peak_sum_ = std::max(
                            peak_sum_, std::abs(static_cast<double>(v.raw())));
                    if (cfg_.interstage_shift) {
                        x0 = scale(x0, h);
                        x1 = scale(x1, h);
                    }
                    out[base + k] = x0;
                    out[base + k + half_len] = x1;
                }
            }
        }
    }

    void build_tables() {
        const std::size_t half = cfg_.n / 2;
        const auto shared =
            qf::shared_twiddle_tables(qpsa::wavelet::basis::haar, cfg_.n, true);
        const auto mags = qf::factor_magnitudes(*shared, !cfg_.band_drop);
        const real thr = qf::magnitude_threshold(mags, cfg_.twiddle_fraction);
        const auto convert = [&](const std::vector<cplx>& src,
                                 std::vector<fcplx>& dst,
                                 std::vector<bool>& pruned) {
            dst.resize(half);
            pruned.resize(half);
            for (std::size_t i = 0; i < half; ++i) {
                pruned[i] = std::abs(src[i]) <= std::max(thr, real{1e-14});
                dst[i] = fcplx{scalar(src[i].real()), scalar(src[i].imag())};
            }
        };
        convert(shared->a, fa_, pruned_a_);
        convert(shared->b, fb_, pruned_b_);
        convert(shared->c, fc_, pruned_c_);
        convert(shared->d, fd_, pruned_d_);
        const std::size_t m = half;
        subtw_.resize(m / 2);
        for (std::size_t k = 0; k < m / 2; ++k) {
            const real ang =
                -qpsa::two_pi * static_cast<real>(k) / static_cast<real>(m);
            subtw_[k] = fcplx{scalar(std::cos(ang)), scalar(std::sin(ang))};
        }
        bitrev_.resize(m);
        const unsigned bits = qpsa::log2_exact(m);
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t r = 0;
            for (unsigned b = 0; b < bits; ++b) r = (r << 1) | ((i >> b) & 1);
            bitrev_[i] = r;
        }
    }

    config cfg_;
    mutable double peak_sum_ = 0.0;
    std::vector<fcplx> fa_, fb_, fc_, fd_;
    std::vector<bool> pruned_a_, pruned_b_, pruned_c_, pruned_d_;
    std::vector<fcplx> subtw_;
    std::vector<std::size_t> bitrev_;
};

/// The engine adapter around the oracle: peak-normalize to 0.2, convert
/// through fixed_point<F>(double), transform, restore the DFT scale.
template <unsigned F>
std::vector<cplx> oracle_engine_forward(
    const typename oracle_fixed_wfft<F>::config& cfg,
    std::span<const cplx> in) {
    using oracle = oracle_fixed_wfft<F>;
    using scalar = typename oracle::scalar;
    const std::size_t n = in.size();
    real peak = 0.0;
    for (const cplx& v : in)
        peak = std::max({peak, std::abs(v.real()), std::abs(v.imag())});
    const real scale = peak > 0.0 ? 0.2 / peak : 1.0;
    std::vector<typename oracle::fcplx> fin(n), fout(n);
    for (std::size_t i = 0; i < n; ++i)
        fin[i] = {scalar(in[i].real() * scale), scalar(in[i].imag() * scale)};
    oracle(cfg).forward(fin, fout);
    const real restore = static_cast<real>(n) / scale;
    std::vector<cplx> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = cplx{fout[i].re.to_double() * restore,
                      fout[i].im.to_double() * restore};
    return out;
}

// ----------------------------------------------------------------- helpers

template <unsigned F>
using fcplx_t = typename qf::fixed_wavelet_fft<F>::fcplx;

template <unsigned F>
std::vector<fcplx_t<F>> from_real(std::span<const double> xs) {
    using scalar = typename qf::fixed_wavelet_fft<F>::scalar;
    std::vector<fcplx_t<F>> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        out[i] = {scalar(xs[i]), scalar(0.0)};
    return out;
}

template <unsigned F>
std::vector<fcplx_t<F>> forward_copy(const qf::fixed_wavelet_fft<F>& fft,
                                     std::span<const fcplx_t<F>> in) {
    std::vector<fcplx_t<F>> out(in.size());
    qu::arena scratch;
    fft.forward(in, out, scratch);
    return out;
}

/// Power spectrum |X|^2 in doubles (for quality evaluation).
template <unsigned F>
std::vector<double> power(const qf::fixed_wavelet_fft<F>& fft,
                          std::span<const double> xs) {
    const auto y = forward_copy<F>(fft, from_real<F>(xs));
    std::vector<double> p(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double re = y[i].re.to_double();
        const double im = y[i].im.to_double();
        p[i] = re * re + im * im;
    }
    return p;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed, double amp) {
    qu::rng r(seed);
    std::vector<double> x(n);
    for (auto& v : x) v = r.uniform(-amp, amp);
    return x;
}

/// Relative L2 error of the fixed-point transform against the exact DFT,
/// accounting for the deterministic 1/N block-floating scale.
template <unsigned F>
double transform_error(const qf::fixed_wavelet_fft<F>& fft,
                       std::span<const double> xs) {
    const std::size_t n = xs.size();
    const auto fout = forward_copy<F>(fft, from_real<F>(xs));

    std::vector<cplx> dx(n);
    for (std::size_t i = 0; i < n; ++i) dx[i] = cplx{xs[i], 0.0};
    const auto ref = qpsa::dsp::dft(dx);

    double num = 0.0;
    double den = 0.0;
    const double scale = static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const cplx got{fout[i].re.to_double() * scale,
                       fout[i].im.to_double() * scale};
        num += qpsa::sqr_mag(got - ref[i]);
        den += qpsa::sqr_mag(ref[i]);
    }
    return std::sqrt(num / den);
}

}  // namespace

TEST(FixedWfftTest, Q23MatchesDftClosely) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 1, 0.3);
    qf::fixed_wavelet_fft<23> fft({.n = n});
    EXPECT_LT(transform_error(fft, xs), 2e-4);
}

TEST(FixedWfftTest, ErrorGrowsAsPrecisionShrinks) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 2, 0.3);
    const double e23 = transform_error(qf::fixed_wavelet_fft<23>({.n = n}), xs);
    const double e15 = transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    const double e11 = transform_error(qf::fixed_wavelet_fft<11>({.n = n}), xs);
    EXPECT_LT(e23, e15);
    EXPECT_LT(e15, e11);
    // Q1.15 on a 128-point transform stays comfortably sub-percent.
    EXPECT_LT(e15, 0.01);
}

TEST(FixedWfftTest, BandDropBehavesLikeDoubleEngine) {
    // Band drop on a smooth signal: small extra error on top of
    // quantization, exactly as in the double-precision engine.
    const std::size_t n = 128;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.3 * std::sin(qpsa::two_pi * 3.0 * i / n) +
                0.1 * std::sin(qpsa::two_pi * 7.0 * i / n);
    const double exact =
        transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    const double dropped = transform_error(
        qf::fixed_wavelet_fft<15>({.n = n, .band_drop = true}), xs);
    EXPECT_GT(dropped, exact);
    EXPECT_LT(dropped, 0.2);
}

TEST(FixedWfftTest, TwiddlePruningReducesSpectrumTail) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 3, 0.3);
    qf::fixed_wavelet_fft<15> full({.n = n, .band_drop = true});
    qf::fixed_wavelet_fft<15> pruned(
        {.n = n, .band_drop = true, .twiddle_fraction = 0.6});
    const auto p_full = power(full, xs);
    const auto p_pruned = power(pruned, xs);
    // Pruned factors zero entire bins; total power must not increase.
    double s_full = 0.0;
    double s_pruned = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        s_full += p_full[i];
        s_pruned += p_pruned[i];
    }
    EXPECT_LT(s_pruned, s_full + 1e-12);
    // And some bins are exactly zero.
    std::size_t zeros = 0;
    for (double p : p_pruned)
        if (p == 0.0) ++zeros;
    EXPECT_GT(zeros, n / 8);
}

TEST(FixedWfftTest, NoSaturationForBoundedInput) {
    // Near-full-scale input through all stages: the interstage shifts
    // must prevent wrap/saturation artifacts (error stays small).
    const std::size_t n = 512;
    const auto xs = random_real(n, 4, 0.45);
    const double err = transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    EXPECT_LT(err, 0.02);
}

TEST(FixedWfftTest, ToneBinLocatesCorrectly) {
    const std::size_t n = 256;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.4 * std::sin(qpsa::two_pi * 10.0 * i / n);
    qf::fixed_wavelet_fft<15> fft({.n = n});
    const auto p = power(fft, xs);
    std::size_t best = 1;
    for (std::size_t i = 1; i < n / 2; ++i)
        if (p[i] > p[best]) best = i;
    EXPECT_EQ(best, 10u);
}

class FixedWfftPrecisionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixedWfftPrecisionSweep, BandDropPlusQuantizationStaysBounded) {
    // Property: for every precision in the sweep, the combined band-drop +
    // quantization error on a smooth signal stays below 25 %.
    const unsigned bits = GetParam();
    const std::size_t n = 128;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.25 * std::sin(qpsa::two_pi * 2.0 * i / n) +
                0.05 * std::sin(qpsa::two_pi * 9.0 * i / n);
    double err = 0.0;
    switch (bits) {
        case 11:
            err = transform_error(
                qf::fixed_wavelet_fft<11>({.n = n, .band_drop = true}), xs);
            break;
        case 15:
            err = transform_error(
                qf::fixed_wavelet_fft<15>({.n = n, .band_drop = true}), xs);
            break;
        case 19:
            err = transform_error(
                qf::fixed_wavelet_fft<19>({.n = n, .band_drop = true}), xs);
            break;
        case 23:
            err = transform_error(
                qf::fixed_wavelet_fft<23>({.n = n, .band_drop = true}), xs);
            break;
        default:
            FAIL() << "unhandled precision";
    }
    EXPECT_LT(err, 0.25) << "F=" << bits;
    EXPECT_GT(err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Precisions, FixedWfftPrecisionSweep,
                         ::testing::Values(11u, 15u, 19u, 23u));

// ------------------------------------------- oracle matrix (transform level)

namespace {

/// How many of matrix_inputs() lead with guarded-mode inputs.
constexpr std::size_t k_guarded = 5;

/// Raw-domain test inputs of one transform size.  The first k_guarded
/// stay strictly inside |raw| < U/2 (guarded mode); the rest reach the
/// guard edge or the raw type's limits, where the clamps fire.
template <unsigned F>
std::vector<std::vector<fcplx_t<F>>> matrix_inputs(std::size_t n,
                                                   std::uint64_t seed) {
    using scalar = typename qf::fixed_wavelet_fft<F>::scalar;
    using raw = typename scalar::raw_type;
    const auto lim = static_cast<std::int64_t>(raw{1} << (F - 1)) - 1;
    const std::int64_t rmax = std::numeric_limits<raw>::max();
    const std::int64_t rmin = std::numeric_limits<raw>::min();
    const auto mk = [](std::int64_t re, std::int64_t im) {
        return fcplx_t<F>{scalar::from_raw(static_cast<raw>(re)),
                          scalar::from_raw(static_cast<raw>(im))};
    };
    qu::rng r(seed);
    std::vector<std::vector<fcplx_t<F>>> ins;
    const auto add = [&](auto gen) {
        auto& v = ins.emplace_back(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = gen(i);
    };
    add([&](std::size_t) { return mk(0, 0); });                     // zeros
    add([&](std::size_t i) { return mk(i == 3 ? lim : 0, 0); });    // one-hot
    add([&](std::size_t) {                                          // random
        return mk(r.uniform_int(-lim / 3, lim / 3),
                  r.uniform_int(-lim / 3, lim / 3));
    });
    add([&](std::size_t i) {  // guard-edge square wave: worst-case growth
        const bool pos = std::cos(qpsa::two_pi * 3.0 * static_cast<real>(i) /
                                  static_cast<real>(n)) >= 0.0;
        return mk(pos ? lim : -lim, pos ? lim : -lim);
    });
    add([&](std::size_t) {  // guard-edge random signs
        return mk(r.uniform_int(0, 1) != 0 ? lim : -lim,
                  r.uniform_int(0, 1) != 0 ? lim : -lim);
    });
    add([&](std::size_t i) {  // just past the guard: saturating mode
        return mk(i % 2 == 0 ? lim + 1 : -lim, lim);
    });
    add([&](std::size_t) {  // full raw range: clamps fire
        return mk(r.uniform_int(rmin, rmax), r.uniform_int(rmin, rmax));
    });
    add([&](std::size_t i) {  // near-saturation DC
        return mk(i % 5 == 0 ? rmin : rmax, rmax - 1);
    });
    return ins;
}

template <unsigned F>
bool same_raw(std::span<const fcplx_t<F>> a, std::span<const fcplx_t<F>> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].re.raw() != b[i].re.raw() || a[i].im.raw() != b[i].im.raw())
            return false;
    return true;
}

/// Lane walk of L inputs (lane l = ins[(first + l) % size]) against the
/// oracle of each lane.
template <unsigned F, std::size_t L>
void expect_lanes_match(const qf::fixed_wavelet_fft<F>& fft,
                        const oracle_fixed_wfft<F>& oracle,
                        const std::vector<std::vector<fcplx_t<F>>>& ins,
                        std::size_t first, const std::string& what) {
    using raw = peer::raw<F>;
    const std::size_t n = fft.get_config().n;
    std::vector<raw> re(n * L), im(n * L);
    for (std::size_t l = 0; l < L; ++l)
        for (std::size_t i = 0; i < n; ++i) {
            re[i * L + l] = ins[(first + l) % ins.size()][i].re.raw();
            im[i * L + l] = ins[(first + l) % ins.size()][i].im.raw();
        }
    qu::arena scratch;
    peer::forward_lanes<F, L>(fft, re.data(), im.data(), scratch);
    std::vector<fcplx_t<F>> want(n);
    for (std::size_t l = 0; l < L; ++l) {
        oracle.forward(ins[(first + l) % ins.size()], want);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(re[i * L + l], want[i].re.raw())
                << what << " L=" << L << " lane " << l << " bin " << i;
            ASSERT_EQ(im[i * L + l], want[i].im.raw())
                << what << " L=" << L << " lane " << l << " bin " << i;
        }
    }
}

template <unsigned F>
void run_oracle_matrix() {
    for (std::size_t n = 8; n <= 1024; n *= 2) {
        for (const bool band_drop : {false, true}) {
            for (const double frac : {0.0, 0.25}) {
                for (const bool shift : {true, false}) {
                    const typename qf::fixed_wavelet_fft<F>::config cfg{
                        n, band_drop, frac, shift};
                    const qf::fixed_wavelet_fft<F> fft(cfg);
                    const oracle_fixed_wfft<F> oracle(cfg);
                    const std::string what =
                        "F=" + std::to_string(F) + " n=" + std::to_string(n) +
                        " drop=" + std::to_string(band_drop) +
                        " frac=" + std::to_string(frac) +
                        " shift=" + std::to_string(shift);
                    ASSERT_EQ(fft.pruned_terms(), oracle.pruned_terms())
                        << what;
                    const auto ins = matrix_inputs<F>(n, n * 7 + F);
                    std::vector<fcplx_t<F>> want(n);
                    for (std::size_t k = 0; k < ins.size(); ++k) {
                        oracle.forward(ins[k], want);
                        ASSERT_TRUE(
                            same_raw<F>(forward_copy<F>(fft, ins[k]), want))
                            << what << " input " << k;
                    }
                    // Guarded lanes only (the engine's widths included),
                    // then groups mixing saturating lanes into guarded
                    // ones (the whole group falls back).
                    const std::vector<std::vector<fcplx_t<F>>> guarded(
                        ins.begin(), ins.begin() + k_guarded);
                    expect_lanes_match<F, 3>(fft, oracle, guarded, 0, what);
                    expect_lanes_match<F, 4>(fft, oracle, guarded, 1, what);
                    expect_lanes_match<F, 8>(fft, oracle, guarded, 0, what);
                    expect_lanes_match<F, 4>(fft, oracle, ins, 3, what);
                    expect_lanes_match<F, 8>(fft, oracle, ins, 0, what);
                }
            }
        }
    }
}

}  // namespace

TEST(FixedWfftOracleTest, Q8MatchesOperatorWalk) { run_oracle_matrix<8>(); }
TEST(FixedWfftOracleTest, Q12MatchesOperatorWalk) { run_oracle_matrix<12>(); }
TEST(FixedWfftOracleTest, Q15MatchesOperatorWalk) { run_oracle_matrix<15>(); }
TEST(FixedWfftOracleTest, Q23MatchesOperatorWalk) { run_oracle_matrix<23>(); }
TEST(FixedWfftOracleTest, Q31MatchesOperatorWalk) { run_oracle_matrix<31>(); }

TEST(FixedWfftOracleTest, ToRawMatchesFixedPointConversion) {
    qu::rng r(17);
    std::vector<double> vs = {0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e-300,
                              2.5 / 32768.0, -2.5 / 32768.0, 3.5e9, -3.5e9,
                              1e30, -1e30};
    for (int i = 0; i < 2000; ++i) vs.push_back(r.uniform(-2.0, 2.0));
    for (int i = 0; i < 200; ++i)
        vs.push_back(
            std::ldexp(r.uniform(-1.0, 1.0), static_cast<int>(i % 40)));
    for (const double v : vs) {
        EXPECT_EQ(peer::to_raw<15>(v),
                  qpsa::fp::fixed_point<15>(v).raw()) << v;
        EXPECT_EQ(peer::to_raw<31>(v),
                  qpsa::fp::fixed_point<31>(v).raw()) << v;
    }
}

// ---------------------------------------------- oracle matrix (engine level)

namespace {

/// Engine inputs: the mesh shapes the Fast-Lomb pipeline feeds (real
/// meshes with exact-zero imaginaries), complex data, and the ranges that
/// stress the adapter's normalization.
std::vector<std::vector<cplx>> engine_inputs(std::size_t n,
                                             std::uint64_t seed) {
    qu::rng r(seed);
    std::vector<std::vector<cplx>> ins;
    const auto add = [&](auto gen) {
        auto& v = ins.emplace_back(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = gen(i);
    };
    add([&](std::size_t) { return cplx{r.gaussian(1.0), 0.0}; });
    add([&](std::size_t) { return cplx{r.uniform(-1, 1), r.uniform(-1, 1)}; });
    add([&](std::size_t i) {  // staircase (sample-and-hold mesh)
        return cplx{0.8 + 0.05 * static_cast<real>((i / 16) % 7), 0.0};
    });
    add([&](std::size_t i) {  // +-50 sigma outliers
        const real spike = i % 97 == 5 ? 50.0 : (i % 131 == 7 ? -50.0 : 0.0);
        return cplx{r.gaussian(1.0) + spike, 0.0};
    });
    add([&](std::size_t) { return cplx{1e-3 * r.gaussian(1.0), 0.0}; });
    add([&](std::size_t) { return cplx{0.0, 0.0}; });
    add([&](std::size_t i) { return cplx{i == 11 ? 3.0 : 0.0, 0.0}; });
    return ins;
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

void expect_same_stats(const qf::exec_stats& a, const qf::exec_stats& b) {
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.terms_total, b.terms_total);
    EXPECT_EQ(a.terms_pruned_factor, b.terms_pruned_factor);
    EXPECT_EQ(a.band_dropped, b.band_dropped);
}

template <unsigned F>
void run_engine_matrix() {
    using engine = ql::fixed_wavelet_engine<F>;
    for (const std::size_t n : {64u, 512u}) {
        for (const bool band_drop : {false, true}) {
            for (const double frac : {0.0, 0.25}) {
                const typename engine::transform::config cfg{n, band_drop, frac,
                                                             true};
                const engine eng(cfg);
                const auto ins = engine_inputs(n, n + F);

                // Per-item forward == the fixed_point<F> adapter + walk.
                std::vector<cplx> got(n);
                for (std::size_t k = 0; k < ins.size(); ++k) {
                    eng.forward(ins[k], got, nullptr);
                    EXPECT_TRUE(
                        same_bits(got, oracle_engine_forward<F>(cfg, ins[k])))
                        << "F=" << F << " n=" << n << " input " << k;
                }

                // forward_batched == per-item forward for 1..17 items
                // (past two groups of the widest table):
                // outputs, exec_stats and the active scope's tally.
                for (std::size_t count = 1; count <= 17; ++count) {
                    std::vector<std::vector<cplx>> a(count,
                                                     std::vector<cplx>(n));
                    std::vector<std::vector<cplx>> b(count,
                                                     std::vector<cplx>(n));
                    std::vector<qf::exec_stats> sa(count), sb(count);
                    std::vector<ql::fft_engine::batch_item> items;
                    for (std::size_t i = 0; i < count; ++i)
                        items.push_back({ins[i % ins.size()], a[i], &sa[i]});
                    qcnt::op_counts scope_a, scope_b;
                    qu::arena scratch;
                    {
                        qcnt::count_scope scope(scope_a);
                        eng.forward_batched(items, scratch);
                    }
                    {
                        qcnt::count_scope scope(scope_b);
                        for (std::size_t i = 0; i < count; ++i)
                            eng.forward(ins[i % ins.size()], b[i], &sb[i],
                                        scratch);
                    }
                    EXPECT_EQ(scope_a, scope_b) << count;
                    for (std::size_t i = 0; i < count; ++i) {
                        EXPECT_TRUE(same_bits(a[i], b[i]))
                            << "F=" << F << " n=" << n << " items " << count
                            << " item " << i;
                        expect_same_stats(sa[i], sb[i]);
                    }
                }
            }
        }
    }
}

}  // namespace

TEST(FixedWfftOracleTest, Q15EngineBatchedMatchesOracle) {
    EXPECT_EQ(ql::fixed_wavelet_engine<15>({}).batch_width(),
              qpsa::simd::kernels().q15.lanes);
    run_engine_matrix<15>();
}

TEST(FixedWfftOracleTest, Q31EngineBatchedMatchesOracle) {
    EXPECT_EQ(ql::fixed_wavelet_engine<31>({}).batch_width(),
              qpsa::simd::kernels().q31.lanes);
    run_engine_matrix<31>();
}

// ------------------------------------------------ per-ISA kernel entries

namespace {

namespace qsimd = qpsa::simd;

/// The adapter's reference input pass for one lane: peak scale and the
/// scalar to_raw.
template <unsigned F>
void reference_lane(std::span<const cplx> in, std::size_t lane, std::size_t L,
                    std::vector<peer::raw<F>>& re, std::vector<peer::raw<F>>& im,
                    real& scale) {
    real peak = 0.0;
    for (const cplx& v : in)
        peak = std::max(std::max(peak, std::abs(v.real())), std::abs(v.imag()));
    scale = peak > 0.0 ? 0.2 / peak : 1.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        re[i * L + lane] = peer::to_raw<F>(in[i].real() * scale);
        im[i * L + lane] = peer::to_raw<F>(in[i].imag() * scale);
    }
}

/// Every compiled ISA's load / walk / store entries for Q-format F on their
/// narrow planes, for partial groups of 1..lanes items: load against the
/// reference conversion, walk against the fixed_point<F> oracle (engine
/// inputs through load, and raw inputs at the guard edge straight into the
/// planes), store against the scalar restore.
template <unsigned F, class Narrow>
void run_kernel_matrix(
    qsimd::fixed_kernels<Narrow, peer::raw<F>> qsimd::kernel_table::*member) {
    using raw = peer::raw<F>;
    using scalar_t = typename qf::fixed_wavelet_fft<F>::scalar;
    constexpr std::size_t max_lanes = 16;
    const raw u_raw = raw{1} << F;
    for (const qsimd::isa which : qsimd::available_isas()) {
        const qsimd::fixed_kernels<Narrow, raw>& k =
            qsimd::kernels_for(which)->*member;
        const std::size_t L = k.lanes;
        ASSERT_GE(L, 2u);
        ASSERT_LE(L, max_lanes);
        for (const std::size_t n : {8u, 64u, 512u}) {
            for (const bool band_drop : {false, true}) {
                const typename qf::fixed_wavelet_fft<F>::config cfg{
                    n, band_drop, band_drop ? 0.25 : 0.0, true};
                const qf::fixed_wavelet_fft<F> fft(cfg);
                const oracle_fixed_wfft<F> oracle(cfg);
                const qsimd::fixed_plan<raw> plan = peer::plan<F>(fft);
                // The +U components the narrow walk copies instead of
                // multiplying: tw_re[0], and one entry of fa_re (and of
                // fd_re when the detail band is live).
                ASSERT_EQ(plan.tw_re[0], u_raw);
                ASSERT_GE(std::count(plan.fa_re, plan.fa_re + n / 2, u_raw), 1);
                if (!band_drop) {
                    ASSERT_GE(std::count(plan.fd_re, plan.fd_re + n / 2, u_raw),
                              1);
                }

                auto ins = engine_inputs(n, n + F);
                // Ties: with peak 0.2 the scale is exactly 1, so v * U
                // lands on +-(k + 0.5); plus -0.0 entries.
                auto& ties = ins.emplace_back(n);
                const real u = std::ldexp(1.0, static_cast<int>(F));
                for (std::size_t i = 0; i < n; ++i) {
                    const real t = static_cast<real>(i % 9) + 0.5;
                    ties[i] = cplx{(i % 2 == 0 ? t : -t) / u,
                                   i % 3 == 0 ? -0.0 : t / u};
                }
                ties[5] = cplx{0.2, -0.0};
                // Raw inputs straight into the planes: the oracle matrix's
                // guarded ones, down to +-(U/2 - 1) square waves and
                // random signs, and sample pairs (so the Haar averages
                // pass them through) of a +-(U/2 - 1) square-wave phasor,
                // whose fundamental of ~0.64 U lands in u and t of one
                // butterfly in phase: sums of ~1.27 U.
                auto edge = matrix_inputs<F>(n, n * 3 + F);
                edge.resize(k_guarded);
                const raw lim = (u_raw >> 1) - 1;
                for (const std::size_t bin : {1u, 3u}) {
                    auto& v = edge.emplace_back(n);
                    for (std::size_t i = 0; i < n; ++i) {
                        const real ph = qpsa::two_pi * static_cast<real>(bin) *
                                        static_cast<real>(i / 2) /
                                        static_cast<real>(n / 2);
                        v[i] = {scalar_t::from_raw(std::cos(ph) >= 0 ? lim : -lim),
                                scalar_t::from_raw(std::sin(ph) >= 0 ? lim : -lim)};
                    }
                }

                std::vector<raw> want_re(n * L), want_im(n * L);
                std::vector<Narrow> re(n * L), im(n * L);
                std::vector<raw> yre(n * L), yim(n * L);
                std::vector<Narrow> planes(peer::walk_scratch<F>(fft, L));
                std::vector<fcplx_t<F>> lane_in(n), want(n);
                // Walk the planes and compare lane l < count with the
                // oracle on want_re / want_im's lane.
                const auto check_walk = [&](std::size_t count,
                                            const std::string& what) {
                    std::fill(yre.begin(), yre.end(), raw{7});
                    std::fill(yim.begin(), yim.end(), raw{7});
                    k.walk(plan, re.data(), im.data(), yre.data(), yim.data(),
                           planes.data());
                    for (std::size_t l = 0; l < count; ++l) {
                        for (std::size_t i = 0; i < n; ++i)
                            lane_in[i] = {
                                scalar_t::from_raw(want_re[i * L + l]),
                                scalar_t::from_raw(want_im[i * L + l])};
                        oracle.forward(lane_in, want);
                        for (std::size_t i = 0; i < n; ++i) {
                            ASSERT_EQ(yre[i * L + l], want[i].re.raw())
                                << what << " lane " << l << " bin " << i;
                            ASSERT_EQ(yim[i * L + l], want[i].im.raw())
                                << what << " lane " << l << " bin " << i;
                        }
                    }
                };
                for (std::size_t count = 1; count <= L; ++count) {
                    const std::string what =
                        std::string(qsimd::isa_name(which)) + " F=" +
                        std::to_string(F) + " n=" + std::to_string(n) +
                        " drop=" + std::to_string(band_drop) +
                        " items=" + std::to_string(count);
                    const cplx* srcs[max_lanes];
                    std::vector<std::vector<cplx>> outs(count,
                                                        std::vector<cplx>(n));
                    cplx* dsts[max_lanes];
                    std::fill(want_re.begin(), want_re.end(), raw{0});
                    std::fill(want_im.begin(), want_im.end(), raw{0});
                    real want_scale[max_lanes] = {};
                    for (std::size_t l = 0; l < count; ++l) {
                        const auto& in = ins[(count + l) % ins.size()];
                        srcs[l] = in.data();
                        dsts[l] = outs[l].data();
                        reference_lane<F>(in, l, L, want_re, want_im,
                                          want_scale[l]);
                    }
                    std::fill(re.begin(), re.end(), Narrow{7});
                    std::fill(im.begin(), im.end(), Narrow{7});
                    real scale[max_lanes] = {};
                    ASSERT_TRUE(k.load(srcs, count, n, re.data(), im.data(),
                                       scale))
                        << what;
                    for (std::size_t i = 0; i < n * L; ++i) {
                        ASSERT_EQ(re[i], want_re[i]) << what << " at " << i;
                        ASSERT_EQ(im[i], want_im[i]) << what << " at " << i;
                    }
                    for (std::size_t l = 0; l < count; ++l)
                        ASSERT_EQ(scale[l], want_scale[l]) << what;

                    check_walk(count, what);

                    real restore[max_lanes] = {};
                    for (std::size_t l = 0; l < count; ++l)
                        restore[l] = static_cast<real>(n) / scale[l];
                    k.store(yre.data(), yim.data(), dsts, count, n, restore);
                    const real one = std::ldexp(1.0, static_cast<int>(F));
                    for (std::size_t l = 0; l < count; ++l)
                        for (std::size_t i = 0; i < n; ++i) {
                            const cplx ref{
                                static_cast<real>(yre[i * L + l]) / one * restore[l],
                                static_cast<real>(yim[i * L + l]) / one * restore[l]};
                            ASSERT_EQ(std::memcmp(&outs[l][i], &ref, sizeof(cplx)), 0)
                                << what << " lane " << l << " bin " << i;
                        }

                    // The guard-edge raw inputs, count lanes of them.
                    for (std::size_t l = 0; l < L; ++l)
                        for (std::size_t i = 0; i < n; ++i) {
                            const auto& in = edge[(count + l) % edge.size()];
                            want_re[i * L + l] = l < count ? in[i].re.raw() : 0;
                            want_im[i * L + l] = l < count ? in[i].im.raw() : 0;
                            re[i * L + l] = static_cast<Narrow>(want_re[i * L + l]);
                            im[i * L + l] = static_cast<Narrow>(want_im[i * L + l]);
                        }
                    check_walk(count, what + " edge");
                }
                // The edge inputs drive butterfly sums past U, where an
                // add in the narrow type would wrap before the halving.
                if (n >= 64) {
                    EXPECT_GT(oracle.peak_sum(), static_cast<double>(u_raw)) << n;
                }

                // Inputs outside the guard -- a NaN, or an infinity (its
                // lane scales to 0 and inf * 0 is NaN) -- fail the group
                // from any lane of a partial group.
                for (const real bad : {std::nan(""), std::numeric_limits<real>::infinity()}) {
                    std::vector<cplx> in = ins[0];
                    in[n / 2] = cplx{bad, 0.0};
                    for (std::size_t at = 0; at < 2; ++at) {
                        const cplx* srcs[max_lanes] = {ins[1].data(), ins[1].data()};
                        srcs[at] = in.data();
                        real scale[max_lanes] = {};
                        EXPECT_FALSE(k.load(srcs, 2, n, re.data(), im.data(), scale))
                            << qsimd::isa_name(which) << " " << bad << " lane " << at;
                    }
                }
            }
        }
    }
}

}  // namespace

TEST(FixedWfftKernels, Q15EntriesMatchOracleOnEveryIsa) {
    run_kernel_matrix<15, std::int16_t>(&qsimd::kernel_table::q15);
}

TEST(FixedWfftKernels, Q31EntriesMatchOracleOnEveryIsa) {
    run_kernel_matrix<31, std::int32_t>(&qsimd::kernel_table::q31);
}

TEST(FixedWfftKernels, LaneCountIsOneNativeIntegerVector) {
    for (const qsimd::isa which : qsimd::available_isas()) {
        const qsimd::kernel_table& t = *qsimd::kernels_for(which);
        const std::size_t bytes = which == qsimd::isa::avx2 ? 32 : 16;
        EXPECT_EQ(t.q15.lanes * sizeof(std::int16_t), bytes) << qsimd::isa_name(which);
        EXPECT_EQ(t.q31.lanes * sizeof(std::int32_t), bytes) << qsimd::isa_name(which);
    }
}

TEST(FixedWfftKernels, ToRawEdgeCases) {
    const auto fp15 = [](double v) { return qpsa::fp::fixed_point<15>(v).raw(); };
    // Half-way ties round away from zero, +-U is exact, NaN maps to the
    // raw minimum, -0.0 to 0, and saturation clamps at the raw limits.
    for (const double k : {0.5, 1.5, 2.5, 1023.5}) {
        EXPECT_EQ(peer::to_raw<15>(k / 32768.0), fp15(k / 32768.0));
        EXPECT_EQ(peer::to_raw<15>(-k / 32768.0), fp15(-k / 32768.0));
        EXPECT_EQ(peer::to_raw<15>(k / 32768.0),
                  static_cast<std::int32_t>(k + 0.5));
        EXPECT_EQ(peer::to_raw<31>(-k / 2147483648.0),
                  -static_cast<std::int64_t>(k + 0.5));
    }
    EXPECT_EQ(peer::to_raw<15>(1.0), 32768);
    EXPECT_EQ(peer::to_raw<15>(-1.0), -32768);
    EXPECT_EQ(peer::to_raw<31>(1.0), std::int64_t{1} << 31);
    EXPECT_EQ(peer::to_raw<31>(-1.0), -(std::int64_t{1} << 31));
    EXPECT_EQ(peer::to_raw<15>(std::nan("")),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(peer::to_raw<31>(std::nan("")),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(peer::to_raw<15>(-0.0), 0);
    EXPECT_EQ(peer::to_raw<31>(-0.0), 0);
    EXPECT_EQ(peer::to_raw<15>(1e30), std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(peer::to_raw<15>(-1e30), std::numeric_limits<std::int32_t>::min());
    for (const double v : {std::nan(""), -0.0, 1.0, -1.0, 1e30, -1e30}) {
        EXPECT_EQ(peer::to_raw<15>(v), fp15(v)) << v;
        EXPECT_EQ(peer::to_raw<31>(v), qpsa::fp::fixed_point<31>(v).raw()) << v;
    }
}

TEST(FixedWfftKernels, IsaTablesHoldTheirOwnCopies) {
    // Each ISA TU instantiates the lane templates with its own TU-local
    // type.  Were the AVX2 and baseline copies one mangled symbol, the
    // linker would keep one for both tables: these pointers would match.
    const qsimd::kernel_table* sse2 = qsimd::kernels_for(qsimd::isa::sse2);
    const qsimd::kernel_table* avx2 = qsimd::kernels_for(qsimd::isa::avx2);
    if (sse2 == nullptr || avx2 == nullptr) GTEST_SKIP() << "needs sse2 and avx2";
    EXPECT_NE(sse2->q15.walk, avx2->q15.walk);
    EXPECT_NE(sse2->q15.load, avx2->q15.load);
    EXPECT_NE(sse2->q15.store, avx2->q15.store);
    EXPECT_NE(sse2->q31.walk, avx2->q31.walk);
    EXPECT_NE(sse2->q31.load, avx2->q31.load);
    EXPECT_NE(sse2->q31.store, avx2->q31.store);
    EXPECT_NE(sse2->burg_lattice, avx2->burg_lattice);
    const qsimd::kernel_table* scalar = qsimd::kernels_for(qsimd::isa::scalar);
    EXPECT_NE(scalar->q15.walk, sse2->q15.walk);
}
