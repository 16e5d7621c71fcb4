// SIMD kernel layer: dispatch, bit-identity and batched transforms.
//
// The load-bearing property of qpsa::simd is that every vector path is
// BIT-identical to the scalar reference -- same multiplies, adds and
// negations per element, no FMA, no reassociation.  These tests pin it
// three ways: each kernel against the scalar table on random data, the
// full split-radix/wavelet/Lomb pipelines under every available ISA, and
// the lane-batched multi-window transform against sequential analysis
// across every engine kind the service can run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"
#include "fft_scratch_oracle.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qc = qpsa::core;
namespace qd = qpsa::dsp;
namespace qf = qpsa::wfft;
namespace ql = qpsa::lomb;
namespace qs = qpsa::simd;
namespace qu = qpsa::util;
namespace qw = qpsa::wavelet;

namespace {

/// ISA active at process start, captured before any test re-points the
/// table -- what QPSA_FORCE_ISA (when set) must have selected.
const qs::isa g_startup_isa = qs::active_isa();

/// Restores the startup ISA when a test that re-points the table exits.
struct isa_guard {
    ~isa_guard() { qs::set_active_isa(g_startup_isa); }
};

std::vector<real> random_reals(std::size_t n, std::uint64_t seed) {
    qu::rng r(seed);
    std::vector<real> v(n);
    for (real& x : v) x = r.uniform(-1.0, 1.0);
    return v;
}

std::vector<cplx> random_cplx(std::size_t n, std::uint64_t seed) {
    qu::rng r(seed);
    std::vector<cplx> v(n);
    for (cplx& z : v) z = {r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
    return v;
}

bool bits_equal(std::span<const real> a, std::span<const real> b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0);
}

bool bits_equal(std::span<const cplx> a, std::span<const cplx> b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

/// An irregular RR window (same shape the workspace suite uses).
struct rr_window {
    std::vector<real> t;
    std::vector<real> x;
};

rr_window make_window(std::size_t n, std::uint64_t seed) {
    qu::rng r(seed);
    rr_window w;
    real t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const real rr = 0.8 + 0.1 * std::sin(qpsa::two_pi * 0.1 * t) +
                        r.uniform(-0.05, 0.05);
        t += rr;
        w.t.push_back(t);
        w.x.push_back(rr);
    }
    return w;
}

void expect_identical(const ql::lomb_result& a, const ql::lomb_result& b) {
    EXPECT_TRUE(bits_equal(a.spectrum.freq_hz, b.spectrum.freq_hz));
    EXPECT_TRUE(bits_equal(a.spectrum.power, b.spectrum.power));
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.mesh_span, b.mesh_span);
}

/// Every engine kind the service can run (covers all 8 engine_class
/// slots: the batched path must be bit-identical for each, whether it
/// lane-batches, falls back sequential, or is a whole-window estimator).
std::vector<qc::psa_config> all_engine_configs() {
    std::vector<qc::psa_config> cfgs;
    cfgs.push_back(qc::psa_config::conventional());
    cfgs.push_back(qc::psa_config::proposed(
        qf::plan::exact(512, qw::basis::db2)));
    cfgs.push_back(qc::psa_config::fixed_wavelet(qc::fixed_format::q15));
    cfgs.push_back(qc::psa_config::fixed_wavelet(qc::fixed_format::q31));
    cfgs.push_back(qc::psa_config::burg_ar());
    cfgs.push_back(qc::psa_config::direct_lomb());
    cfgs.push_back(qc::psa_config::resampled());
    cfgs.push_back(qc::psa_config::welch());
    return cfgs;
}

}  // namespace

// ------------------------------------------------------------- dispatch

TEST(SimdDispatch, StartupIsaHonorsForceEnv) {
    // When the CI matrix exports QPSA_FORCE_ISA, the process must have
    // resolved exactly that ISA at startup; without the variable -- or
    // with it set to the empty string, which means unset -- the
    // auto-detected ISA is active.  Either way the active table is in the
    // available list.
    const auto avail = qs::available_isas();
    const auto usable = [&](qs::isa which) {
        return std::find(avail.begin(), avail.end(), which) != avail.end();
    };
    const char* forced = std::getenv("QPSA_FORCE_ISA");
    if (forced != nullptr && *forced != '\0') {
        EXPECT_STREQ(qs::isa_name(g_startup_isa), forced);
    } else {
        qs::isa detected = qs::isa::scalar;
        for (const qs::isa cand :
             {qs::isa::sse2, qs::isa::neon, qs::isa::avx2})
            if (usable(cand)) detected = cand;
        EXPECT_EQ(g_startup_isa, detected) << qs::isa_name(g_startup_isa);
    }
    EXPECT_TRUE(usable(g_startup_isa));
}

TEST(SimdDispatch, AvailableAlwaysContainsScalar) {
    const auto avail = qs::available_isas();
    ASSERT_FALSE(avail.empty());
    EXPECT_TRUE(std::find(avail.begin(), avail.end(), qs::isa::scalar) !=
                avail.end());
    for (const qs::isa which : avail) {
        const qs::kernel_table* kt = qs::kernels_for(which);
        ASSERT_NE(kt, nullptr) << qs::isa_name(which);
        EXPECT_EQ(kt->which, which);
        EXPECT_GE(kt->lanes, 1u);
    }
}

TEST(SimdDispatch, SetActiveIsaRepointsTable) {
    isa_guard guard;
    for (const qs::isa which : qs::available_isas()) {
        ASSERT_TRUE(qs::set_active_isa(which)) << qs::isa_name(which);
        EXPECT_EQ(qs::active_isa(), which);
        EXPECT_EQ(qs::kernels().which, which);
    }
    // An ISA this build/CPU cannot run is refused and leaves the table
    // unchanged.
    const auto avail = qs::available_isas();
    for (const qs::isa which :
         {qs::isa::sse2, qs::isa::avx2, qs::isa::neon}) {
        if (std::find(avail.begin(), avail.end(), which) != avail.end())
            continue;
        const qs::isa before = qs::active_isa();
        EXPECT_FALSE(qs::set_active_isa(which)) << qs::isa_name(which);
        EXPECT_EQ(qs::active_isa(), before);
    }
}

// ------------------------------------------------- per-kernel identity

TEST(SimdKernels, Spread4MatchesScalarOnEveryIsa) {
    // spread4 is the one single-stream kernel with a per-ISA copy: every
    // fractional position against the scalar deposit, including the
    // circular wrap cells at both mesh ends.
    const qs::kernel_table* ref = qs::kernels_for(qs::isa::scalar);
    ASSERT_NE(ref, nullptr);
    for (const qs::isa which : qs::available_isas()) {
        if (which == qs::isa::scalar) continue;
        const qs::kernel_table* kt = qs::kernels_for(which);
        ASSERT_NE(kt, nullptr);
        for (const std::ptrdiff_t i0 : {-1l, 0l, 3l, 30l, 31l}) {
            std::vector<real> m0 = random_reals(32, 77);
            std::vector<real> m1 = m0;
            ref->spread4(0.625, m0.data(), m0.size(), i0, 0.3125);
            kt->spread4(0.625, m1.data(), m1.size(), i0, 0.3125);
            EXPECT_TRUE(bits_equal(m0, m1))
                << qs::isa_name(which) << " i0=" << i0;
        }
    }
}

// --------------------------------------------- pipelines under each ISA

TEST(SimdPipelines, SplitRadixForwardIdenticalAcrossIsas) {
    isa_guard guard;
    for (const std::size_t n : {64u, 512u}) {
        const auto in = random_cplx(n, n);
        ASSERT_TRUE(qs::set_active_isa(qs::isa::scalar));
        const qd::fft_split_radix fft(n);
        std::vector<cplx> ref(n);
        fft.forward(in, ref);
        for (const qs::isa which : qs::available_isas()) {
            ASSERT_TRUE(qs::set_active_isa(which));
            std::vector<cplx> out(n);
            fft.forward(in, out);
            EXPECT_TRUE(bits_equal(ref, out))
                << qs::isa_name(which) << " n=" << n;
        }
    }
}

TEST(SimdPipelines, WaveletForwardIdenticalAcrossIsas) {
    isa_guard guard;
    for (const qw::basis b : {qw::basis::haar, qw::basis::db2}) {
        const auto in = random_cplx(256, 99);
        ASSERT_TRUE(qs::set_active_isa(qs::isa::scalar));
        const qf::wavelet_fft fft(qf::plan::exact(256, b));
        std::vector<cplx> ref(256);
        qf::exec_stats st;
        fft.forward(in, ref, &st);
        for (const qs::isa which : qs::available_isas()) {
            ASSERT_TRUE(qs::set_active_isa(which));
            std::vector<cplx> out(256);
            qf::exec_stats st2;
            fft.forward(in, out, &st2);
            EXPECT_TRUE(bits_equal(ref, out)) << qs::isa_name(which);
        }
    }
}

TEST(SimdPipelines, FastLombIdenticalAcrossIsas) {
    isa_guard guard;
    const rr_window w = make_window(117, 5);
    ql::fast_lomb_options opt;  // lagrange + two_transforms + 512 mesh
    ASSERT_TRUE(qs::set_active_isa(qs::isa::scalar));
    const ql::split_radix_engine engine(512);
    ql::lomb_breakdown bd_ref;
    const ql::lomb_result ref = ql::fast_lomb(w.t, w.x, engine, opt, &bd_ref);
    for (const qs::isa which : qs::available_isas()) {
        ASSERT_TRUE(qs::set_active_isa(which));
        ql::lomb_breakdown bd;
        const ql::lomb_result got = ql::fast_lomb(w.t, w.x, engine, opt, &bd);
        expect_identical(ref, got);
        EXPECT_EQ(bd_ref.total(), bd.total()) << qs::isa_name(which);
    }
}

// ------------------------------------------------- batched transforms

TEST(SimdBatched, ForwardBatchedMatchesSequential) {
    const std::size_t n = 512;
    const qd::fft_split_radix fft(n);
    // Batch sizes around the lane width: singletons, exact multiples,
    // ragged tails.
    for (const std::size_t batch : {1u, 2u, 3u, 4u, 5u, 9u}) {
        std::vector<std::vector<cplx>> ins, seq(batch);
        for (std::size_t b = 0; b < batch; ++b)
            ins.push_back(random_cplx(n, 1000 + 31 * b + batch));
        for (std::size_t b = 0; b < batch; ++b) {
            seq[b].resize(n);
            fft.forward(ins[b], seq[b]);
        }
        std::vector<const cplx*> in_ptrs;
        std::vector<std::vector<cplx>> outs(batch);
        std::vector<cplx*> out_ptrs;
        for (std::size_t b = 0; b < batch; ++b) {
            in_ptrs.push_back(ins[b].data());
            outs[b].assign(n, cplx{});
            out_ptrs.push_back(outs[b].data());
        }
        qu::arena scratch;
        fft.forward_batched(in_ptrs, out_ptrs, scratch);
        for (std::size_t b = 0; b < batch; ++b)
            EXPECT_TRUE(bits_equal(seq[b], outs[b]))
                << "batch=" << batch << " lane=" << b;
    }
}

// ------------------------------------------- the frozen walk oracle

namespace {

/// Complex inputs, or real-only ones whose imaginary parts are exactly
/// +0.0 (what widen_real feeds the conventional engine).
std::vector<cplx> oracle_input(std::size_t n, std::uint64_t seed, bool real_only) {
    std::vector<cplx> v = random_cplx(n, seed);
    if (real_only)
        for (cplx& z : v) z = cplx{z.real(), 0.0};
    return v;
}

}  // namespace

TEST(SplitRadixOracle, ForwardMatchesScratchChainedWalkUnderEveryIsa) {
    isa_guard guard;
    for (std::size_t n = 2; n <= 4096; n *= 2) {
        const qd::fft_split_radix fft(n);
        const qd::fft_scratch_oracle oracle(n);
        for (const bool real_only : {false, true}) {
            const auto in = oracle_input(n, 7 * n + real_only, real_only);
            const auto want = oracle.forward_copy(in);
            for (const qs::isa which : qs::available_isas()) {
                ASSERT_TRUE(qs::set_active_isa(which));
                EXPECT_TRUE(bits_equal(want, fft.forward_copy(in)))
                    << qs::isa_name(which) << " n=" << n
                    << " real_only=" << real_only;
            }
        }
    }
}

TEST(SplitRadixOracle, BatchedMatchesScratchChainedWalkUnderEveryIsa) {
    // Batch sizes 1..9 cover lone scalar remainders, exact lane groups and
    // ragged tails at every lane width; the aliased arm runs each
    // transform in place (outs[i] == ins[i]), as resampled and Welch do.
    isa_guard guard;
    qu::arena scratch;
    for (std::size_t n = 2; n <= 4096; n *= 2) {
        const qd::fft_split_radix fft(n);
        const qd::fft_scratch_oracle oracle(n);
        for (const bool real_only : {false, true}) {
            std::vector<std::vector<cplx>> ins, want;
            for (std::size_t b = 0; b < 9; ++b) {
                ins.push_back(oracle_input(n, 1000 * n + 31 * b + real_only,
                                           real_only));
                want.push_back(oracle.forward_copy(ins.back()));
            }
            for (const qs::isa which : qs::available_isas()) {
                ASSERT_TRUE(qs::set_active_isa(which));
                for (std::size_t batch = 1; batch <= 9; ++batch) {
                    for (const bool aliased : {false, true}) {
                        std::vector<std::vector<cplx>> outs(batch);
                        std::vector<const cplx*> in_ptrs;
                        std::vector<cplx*> out_ptrs;
                        for (std::size_t b = 0; b < batch; ++b) {
                            outs[b] = aliased ? ins[b]
                                              : std::vector<cplx>(n, cplx{});
                            in_ptrs.push_back(aliased ? outs[b].data()
                                                      : ins[b].data());
                            out_ptrs.push_back(outs[b].data());
                        }
                        fft.forward_batched(in_ptrs, out_ptrs, scratch);
                        for (std::size_t b = 0; b < batch; ++b)
                            EXPECT_TRUE(bits_equal(want[b], outs[b]))
                                << qs::isa_name(which) << " n=" << n
                                << " batch=" << batch << " lane=" << b
                                << " real_only=" << real_only
                                << " aliased=" << aliased;
                    }
                }
            }
        }
    }
}

TEST(SplitRadixOracle, KernelWalkMatchesScratchChainedWalkOnEveryTable) {
    // The batched walk of every compiled table -- the scalar one included,
    // which forward_batched never runs -- straight through the kernel
    // entry point, one distinct input per lane, out of place and in place.
    for (const qs::isa which : qs::available_isas()) {
        const qs::kernel_table& kt = *qs::kernels_for(which);
        const std::size_t w = kt.lanes;
        for (std::size_t n = 2; n <= 1024; n *= 2) {
            const qd::fft_scratch_oracle oracle(n);
            std::vector<cplx> wtab(n);
            for (std::size_t k = 0; k < n; ++k) {
                const real ang = -qpsa::two_pi * static_cast<real>(k) /
                                 static_cast<real>(n);
                wtab[k] = cplx{std::cos(ang), std::sin(ang)};
            }
            std::vector<real> wre(n * w), wim(n * w);
            for (const bool aliased : {false, true}) {
                std::vector<std::vector<cplx>> ins, outs;
                std::vector<const cplx*> srcs;
                std::vector<cplx*> dsts;
                for (std::size_t l = 0; l < w; ++l) {
                    ins.push_back(oracle_input(n, 5 * n + l, l % 2 == 1));
                    outs.push_back(aliased ? ins.back() : std::vector<cplx>(n));
                }
                for (std::size_t l = 0; l < w; ++l) {
                    srcs.push_back(aliased ? outs[l].data() : ins[l].data());
                    dsts.push_back(outs[l].data());
                }
                kt.sr_batched(srcs.data(), dsts.data(), wre.data(), wim.data(),
                              n, wtab.data());
                for (std::size_t l = 0; l < w; ++l)
                    EXPECT_TRUE(bits_equal(oracle.forward_copy(ins[l]), outs[l]))
                        << qs::isa_name(which) << " n=" << n << " lane=" << l
                        << " aliased=" << aliased;
            }
        }
    }
}

TEST(SimdBatched, AnalyzeWindowBatchedIdenticalAllEngineKinds) {
    for (const qc::psa_config& cfg : all_engine_configs()) {
        const qc::psa_system sys(cfg);
        constexpr std::size_t n_jobs = 5;
        std::vector<rr_window> wins;
        for (std::size_t j = 0; j < n_jobs; ++j)
            wins.push_back(make_window(150 + 7 * j, 42 + j));

        // Sequential reference through the same workspace path.
        std::vector<ql::lomb_result> want(n_jobs);
        std::vector<ql::lomb_breakdown> want_bd(n_jobs);
        {
            ql::workspace ws(cfg.lomb.mesh_size);
            for (std::size_t j = 0; j < n_jobs; ++j)
                sys.analyze_window(wins[j].t, wins[j].x, ws, want[j],
                                   &want_bd[j]);
        }

        std::vector<ql::lomb_result> got(n_jobs);
        std::vector<ql::lomb_breakdown> got_bd(n_jobs);
        std::vector<ql::window_job> jobs(n_jobs);
        for (std::size_t j = 0; j < n_jobs; ++j) {
            jobs[j].t = wins[j].t;
            jobs[j].x = wins[j].x;
            jobs[j].out = &got[j];
            jobs[j].bd = &got_bd[j];
        }
        ql::workspace ws(cfg.lomb.mesh_size);
        sys.analyze_window_batched(jobs, ws);
        for (std::size_t j = 0; j < n_jobs; ++j) {
            EXPECT_TRUE(jobs[j].ok) << cfg.describe() << " job " << j;
            expect_identical(want[j], got[j]);
            EXPECT_EQ(want_bd[j].total(), got_bd[j].total())
                << cfg.describe() << " job " << j;
            EXPECT_EQ(want_bd[j].fft, got_bd[j].fft)
                << cfg.describe() << " job " << j;
        }
    }
}

TEST(SimdBatched, DegenerateJobSkippedOthersUnaffected) {
    const qc::psa_config cfg = qc::psa_config::conventional();
    const qc::psa_system sys(cfg);
    rr_window good1 = make_window(140, 7);
    rr_window good2 = make_window(140, 8);
    // Two identical beats: the mean is exact, so the variance is exactly
    // zero and the sequential path throws contract_error.
    rr_window flat;
    for (std::size_t i = 0; i < 2; ++i) {
        flat.t.push_back(0.8 * static_cast<real>(i + 1));
        flat.x.push_back(0.8);
    }
    ql::workspace ws_ref(cfg.lomb.mesh_size);
    ql::lomb_result want1, want2;
    sys.analyze_window(good1.t, good1.x, ws_ref, want1);
    sys.analyze_window(good2.t, good2.x, ws_ref, want2);
    EXPECT_THROW(
        {
            ql::lomb_result r;
            sys.analyze_window(flat.t, flat.x, ws_ref, r);
        },
        qpsa::contract_error);

    std::vector<ql::lomb_result> out(3);
    std::vector<ql::lomb_breakdown> bd(3);
    std::vector<ql::window_job> jobs(3);
    const rr_window* wins[3] = {&good1, &flat, &good2};
    for (std::size_t j = 0; j < 3; ++j) {
        jobs[j].t = wins[j]->t;
        jobs[j].x = wins[j]->x;
        jobs[j].out = &out[j];
        jobs[j].bd = &bd[j];
    }
    ql::workspace ws(cfg.lomb.mesh_size);
    sys.analyze_window_batched(jobs, ws);
    EXPECT_TRUE(jobs[0].ok);
    EXPECT_FALSE(jobs[1].ok);
    EXPECT_TRUE(jobs[2].ok);
    expect_identical(want1, out[0]);
    expect_identical(want2, out[2]);
}

TEST(SimdBatched, BatchedIdenticalUnderEveryIsa) {
    isa_guard guard;
    const qc::psa_config cfg = qc::psa_config::conventional();
    const qc::psa_system sys(cfg);
    std::vector<rr_window> wins;
    for (std::size_t j = 0; j < 4; ++j)
        wins.push_back(make_window(130 + 11 * j, 60 + j));

    ASSERT_TRUE(qs::set_active_isa(qs::isa::scalar));
    std::vector<ql::lomb_result> want(wins.size());
    {
        ql::workspace ws(cfg.lomb.mesh_size);
        for (std::size_t j = 0; j < wins.size(); ++j)
            sys.analyze_window(wins[j].t, wins[j].x, ws, want[j]);
    }

    for (const qs::isa which : qs::available_isas()) {
        ASSERT_TRUE(qs::set_active_isa(which));
        std::vector<ql::lomb_result> got(wins.size());
        std::vector<ql::lomb_breakdown> bd(wins.size());
        std::vector<ql::window_job> jobs(wins.size());
        for (std::size_t j = 0; j < wins.size(); ++j) {
            jobs[j].t = wins[j].t;
            jobs[j].x = wins[j].x;
            jobs[j].out = &got[j];
            jobs[j].bd = &bd[j];
        }
        ql::workspace ws(cfg.lomb.mesh_size);
        sys.analyze_window_batched(jobs, ws);
        for (std::size_t j = 0; j < wins.size(); ++j) {
            EXPECT_TRUE(jobs[j].ok) << qs::isa_name(which);
            expect_identical(want[j], got[j]);
        }
    }
}
