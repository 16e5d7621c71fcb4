// FFT correctness and operation-count tests.
//
// The split-radix baseline must (a) agree with the O(N^2) DFT to near
// machine precision and (b) reproduce the canonical split-radix operation
// totals (15368 real ops at N = 512), since every complexity comparison in
// the paper is made against it.
#include <gtest/gtest.h>

#include <cmath>

#include "qpsa/counting/op_counter.hpp"
#include "fft_radix2.hpp"
#include "qpsa/dsp/dft.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/dsp/real_pair_fft.hpp"
#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/util/random.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qd = qpsa::dsp;
namespace qc = qpsa::counting;

namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
    qpsa::util::rng r(seed);
    std::vector<cplx> x(n);
    for (auto& v : x) v = cplx{r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
    return x;
}

real max_abs_diff(std::span<const cplx> a, std::span<const cplx> b) {
    real worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

}  // namespace

TEST(DftTest, KnownFourPointTransform) {
    const std::vector<cplx> x = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
    const auto y = qd::dft(x);
    EXPECT_NEAR(y[0].real(), 10.0, 1e-12);
    EXPECT_NEAR(y[0].imag(), 0.0, 1e-12);
    EXPECT_NEAR(y[1].real(), -2.0, 1e-12);
    EXPECT_NEAR(y[1].imag(), 2.0, 1e-12);
    EXPECT_NEAR(y[2].real(), -2.0, 1e-12);
    EXPECT_NEAR(y[2].imag(), 0.0, 1e-12);
    EXPECT_NEAR(y[3].real(), -2.0, 1e-12);
    EXPECT_NEAR(y[3].imag(), -2.0, 1e-12);
}

TEST(DftTest, InverseRoundTrip) {
    const auto x = random_signal(16, 1);
    const auto y = qd::dft(x);
    const auto back = qd::idft(y);
    EXPECT_LT(max_abs_diff(x, back), 1e-10);
}

TEST(DftTest, ImpulseGivesFlatSpectrum) {
    std::vector<cplx> x(8, cplx{0.0, 0.0});
    x[0] = cplx{1.0, 0.0};
    const auto y = qd::dft(x);
    for (const auto& v : y) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, Radix2MatchesDft) {
    const std::size_t n = GetParam();
    const auto x = random_signal(n, 2 + n);
    const auto ref = qd::dft(x);
    qd::fft_radix2 fft(n);
    const auto y = fft.forward_copy(x);
    EXPECT_LT(max_abs_diff(ref, y), 1e-9 * static_cast<real>(n));
}

TEST_P(FftSizeTest, SplitRadixMatchesDft) {
    const std::size_t n = GetParam();
    const auto x = random_signal(n, 3 + n);
    const auto ref = qd::dft(x);
    qd::fft_split_radix fft(n);
    const auto y = fft.forward_copy(x);
    EXPECT_LT(max_abs_diff(ref, y), 1e-9 * static_cast<real>(n));
}

TEST_P(FftSizeTest, Radix2InverseRoundTrip) {
    const std::size_t n = GetParam();
    const auto x = random_signal(n, 4 + n);
    qd::fft_radix2 fft(n);
    std::vector<cplx> buf = x;
    fft.forward(buf);
    fft.inverse(buf);
    EXPECT_LT(max_abs_diff(x, buf), 1e-10 * static_cast<real>(n));
}

TEST_P(FftSizeTest, ParsevalHolds) {
    const std::size_t n = GetParam();
    const auto x = random_signal(n, 5 + n);
    qd::fft_split_radix fft(n);
    const auto y = fft.forward_copy(x);
    real ex = 0.0;
    real ey = 0.0;
    for (const auto& v : x) ex += qpsa::sqr_mag(v);
    for (const auto& v : y) ey += qpsa::sqr_mag(v);
    EXPECT_NEAR(ey, ex * static_cast<real>(n), 1e-6 * ex * static_cast<real>(n));
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwoSizes, FftSizeTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024));

TEST(FftOpsTest, SplitRadixCanonicalCountsAt512) {
    const auto x = random_signal(512, 7);
    qd::fft_split_radix fft(512);
    qc::op_counts ops;
    {
        qc::count_scope scope(ops);
        (void)fft.forward_copy(x);
    }
    // Canonical split-radix totals (4-mul/2-add complex multiply
    // convention): 3988 muls + 11380 adds = 15368 real operations.
    EXPECT_EQ(ops.muls, 3988u);
    EXPECT_EQ(ops.adds, 11380u);
    EXPECT_EQ(ops.arithmetic(), 15368u);
}

TEST(FftOpsTest, SplitRadixBeatsRadix2) {
    const auto x = random_signal(512, 8);
    qd::fft_split_radix sr(512);
    qd::fft_radix2 r2(512);
    qc::op_counts ops_sr;
    qc::op_counts ops_r2;
    {
        qc::count_scope scope(ops_sr);
        (void)sr.forward_copy(x);
    }
    {
        qc::count_scope scope(ops_r2);
        (void)r2.forward_copy(x);
    }
    EXPECT_LT(ops_sr.arithmetic(), ops_r2.arithmetic());
}

TEST(FftOpsTest, CountsScaleWithSize) {
    qc::op_counts small;
    qc::op_counts big;
    {
        qd::fft_split_radix fft(256);
        const auto x = random_signal(256, 9);
        qc::count_scope scope(small);
        (void)fft.forward_copy(x);
    }
    {
        qd::fft_split_radix fft(1024);
        const auto x = random_signal(1024, 10);
        qc::count_scope scope(big);
        (void)fft.forward_copy(x);
    }
    // N log N growth: 1024/256 = 4x size, 10/8 log ratio -> 5x ops.
    const double ratio = static_cast<double>(big.arithmetic()) /
                         static_cast<double>(small.arithmetic());
    EXPECT_NEAR(ratio, 5.0, 0.35);
}

TEST(RealPairFftTest, UnpackRecoversBothSpectra) {
    const std::size_t n = 64;
    qpsa::util::rng r(11);
    std::vector<real> a(n);
    std::vector<real> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = r.uniform(-1.0, 1.0);
        b[i] = r.uniform(-1.0, 1.0);
    }
    const auto packed = qd::pack_real_pair(a, b);
    const auto z = qd::dft(packed);
    std::vector<cplx> sa(n);
    std::vector<cplx> sb(n);
    qd::unpack_real_pair(z, sa, sb);

    const auto ref_a = qd::dft_real(a);
    const auto ref_b = qd::dft_real(b);
    EXPECT_LT(max_abs_diff(ref_a, sa), 1e-9);
    EXPECT_LT(max_abs_diff(ref_b, sb), 1e-9);
}

TEST(RealPairFftTest, SizeMismatchViolatesContract) {
    std::vector<real> a(8, 0.0);
    std::vector<real> b(4, 0.0);
    EXPECT_THROW(qd::pack_real_pair(a, b), qpsa::contract_error);
}

TEST(SpectrumTest, BandPowerOfFlatSpectrum) {
    qd::sampled_spectrum s;
    for (int i = 0; i <= 100; ++i) {
        s.freq_hz.push_back(0.005 * i);  // 0 .. 0.5 Hz
        s.power.push_back(2.0);
    }
    // Flat PSD of 2: band power = 2 * bandwidth.
    EXPECT_NEAR(qd::band_power(s, 0.04, 0.15), 2.0 * 0.11, 1e-9);
    EXPECT_NEAR(qd::band_power(s, 0.15, 0.40), 2.0 * 0.25, 1e-9);
    EXPECT_NEAR(qd::total_power(s), 2.0 * 0.5, 1e-6);
}

TEST(SpectrumTest, PeakFrequencyFindsTone) {
    qd::sampled_spectrum s;
    for (int i = 0; i <= 100; ++i) {
        s.freq_hz.push_back(0.005 * i);
        s.power.push_back(i == 50 ? 10.0 : 0.1);
    }
    EXPECT_NEAR(qd::peak_frequency(s, 0.0, 0.5), 0.25, 1e-9);
}

TEST(SpectrumTest, PowerSpectrumIsSquaredMagnitude) {
    const std::vector<cplx> x = {{3.0, 4.0}, {0.0, -2.0}};
    const auto p = qd::power_spectrum(x);
    EXPECT_DOUBLE_EQ(p[0], 25.0);
    EXPECT_DOUBLE_EQ(p[1], 4.0);
}
