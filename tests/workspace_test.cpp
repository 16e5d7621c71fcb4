// Workspace / arena regression suite.
//
// The zero-allocation hot path reuses one lomb::workspace arena across
// heterogeneous windows; these tests pin the load-bearing property: the
// workspace path is BIT-identical to the allocating path, for every
// engine datapath (double split-radix, double wavelet, Q15, Q31, Burg),
// across windows of varying length, under aggressive reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/core/workspace_cache.hpp"
#include "qpsa/dsp/burg.hpp"
#include "qpsa/dsp/real_pair_fft.hpp"
#include "qpsa/lomb/estimator_engines.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/lomb/fixed_engine.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wavelet/dwt.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qc = qpsa::core;
namespace qd = qpsa::dsp;
namespace qf = qpsa::wfft;
namespace ql = qpsa::lomb;
namespace qu = qpsa::util;
namespace qw = qpsa::wavelet;

namespace {

/// Irregular RR window: n beats of a modulated sinus rhythm.
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

/// Exact (bitwise) spectrum comparison.
void expect_identical(const ql::lomb_result& a, const ql::lomb_result& b) {
    ASSERT_EQ(a.spectrum.freq_hz.size(), b.spectrum.freq_hz.size());
    ASSERT_EQ(a.spectrum.power.size(), b.spectrum.power.size());
    for (std::size_t i = 0; i < a.spectrum.power.size(); ++i) {
        EXPECT_EQ(a.spectrum.freq_hz[i], b.spectrum.freq_hz[i]);
        EXPECT_EQ(a.spectrum.power[i], b.spectrum.power[i]);
    }
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.mesh_span, b.mesh_span);
}

/// One reused workspace + result across 100 windows of varying length
/// must reproduce the allocating path bit-for-bit.
void check_engine_bit_identity(const ql::fft_engine& engine) {
    ql::fast_lomb_options opt;
    opt.mesh_size = 512;

    ql::workspace ws(512);
    ql::lomb_result reused;
    for (int w = 0; w < 100; ++w) {
        // Heterogeneous lengths, revisited in a non-monotone pattern so
        // the arena sees grow-shrink-grow reuse.
        const std::size_t n = 48 + static_cast<std::size_t>((w * 37) % 160);
        const rr_window win = make_window(n, 1000 + static_cast<std::uint64_t>(w));

        ql::lomb_breakdown bd_ref;
        const ql::lomb_result ref =
            ql::fast_lomb(win.t, win.x, engine, opt, &bd_ref);

        ql::lomb_breakdown bd_ws;
        ql::fast_lomb(win.t, win.x, engine, opt, ws, reused, &bd_ws);

        expect_identical(ref, reused);
        EXPECT_EQ(bd_ref.total(), bd_ws.total());
        EXPECT_EQ(bd_ref.fft_stats.terms_pruned_factor,
                  bd_ws.fft_stats.terms_pruned_factor);
    }
}

}  // namespace

// ---------------------------------------------------------------- arena

TEST(Arena, FramesRewindAndChunksAreStable) {
    qu::arena a;
    const std::size_t cap0 = a.capacity_bytes();
    EXPECT_EQ(cap0, 0u);

    std::span<double> outer = a.alloc_zero<double>(100);
    outer[0] = 1.0;
    outer[99] = 2.0;
    {
        qu::arena::frame f(a);
        // Force growth past the first chunk; outer must stay valid.
        std::span<double> inner = a.alloc<double>(4096);
        inner[0] = 3.0;
        EXPECT_EQ(outer[0], 1.0);
        EXPECT_EQ(outer[99], 2.0);
    }
    // After the frame unwinds, the same request reuses the same storage.
    const std::size_t cap1 = a.capacity_bytes();
    for (int i = 0; i < 10; ++i) {
        qu::arena::frame f(a);
        (void)a.alloc<double>(4096);
        EXPECT_EQ(a.capacity_bytes(), cap1);
    }
}

TEST(Arena, ZeroFillAndAlignment) {
    qu::arena a;
    (void)a.alloc<char>(3);  // misalign the cursor
    std::span<cplx> z = a.alloc_zero<cplx>(7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(z.data()) % alignof(cplx), 0u);
    for (const cplx& v : z) EXPECT_EQ(v, cplx(0.0, 0.0));
    EXPECT_TRUE(a.alloc<double>(0).empty());
}

TEST(Arena, SimdAlignmentGuaranteed) {
    // Every chunk base is 64-byte aligned, so alloc_aligned must return
    // 64-byte-aligned spans from any cursor position -- including right
    // after odd-sized allocations and across chunk growth.
    qu::arena a;
    for (int round = 0; round < 8; ++round) {
        (void)a.alloc<char>(1 + round * 13);  // scramble the cursor
        std::span<double> s = a.alloc_aligned<double>(64 + round * 977);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) %
                      qu::arena::k_simd_align,
                  0u)
            << "round " << round;
        s[0] = 1.0;
        s[s.size() - 1] = 2.0;
    }
    // Explicit smaller alignments still honored.
    std::span<cplx> z = a.alloc_aligned<cplx>(5, 32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(z.data()) % 32u, 0u);
    EXPECT_TRUE(a.alloc_aligned<double>(0).empty());
}

// ------------------------------------------------- kernel-level identity

TEST(Workspace, ExtirpolateIntoMatchesAllocating) {
    const rr_window w = make_window(117, 42);
    const auto ref = ql::extirpolate(w.t, w.x, 256, 4, w.t.front(), 400.0);
    std::vector<real> mesh(256, -1.0);  // stale contents must be cleared
    ql::extirpolate(w.t, w.x, mesh, 4, w.t.front(), 400.0);
    ASSERT_EQ(ref.size(), mesh.size());
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], mesh[i]);
}

TEST(Workspace, PackRealPairIntoMatchesAllocating) {
    std::vector<real> a(33), b(33);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<real>(i);
        b[i] = -static_cast<real>(i);
    }
    const auto ref = qd::pack_real_pair(a, b);
    std::vector<cplx> out(33);
    qd::pack_real_pair(a, b, out);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(ref[i], out[i]);
}

TEST(Workspace, SplitRadixForwardIsScratchFreeAndRejectsOverlap) {
    // The in-place walk needs no workspace: repeated forwards into a
    // reused output match, and an output overlapping the input (which the
    // walk reads to the end) is a contract violation, not silent garbage.
    qd::fft_split_radix fft(128);
    qu::rng r(7);
    std::vector<cplx> x(128);
    for (auto& v : x) v = cplx{r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
    std::vector<cplx> ref(128), out(128);
    fft.forward(x, ref);
    for (int rep = 0; rep < 3; ++rep) {
        fft.forward(x, out);
        for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(ref[i], out[i]);
    }
    std::vector<cplx> buf(192);
    std::copy(x.begin(), x.end(), buf.begin());
    const std::span<const cplx> in(buf.data(), 128);
    EXPECT_THROW(fft.forward(in, std::span<cplx>(buf.data(), 128)),
                 qpsa::contract_error);
    EXPECT_THROW(fft.forward(in, std::span<cplx>(buf.data() + 64, 128)),
                 qpsa::contract_error);
}

TEST(Workspace, WaveletFftArenaForwardMatches) {
    for (const auto tree : {qf::tree_mode::single_level, qf::tree_mode::recursive}) {
        qf::wavelet_fft fft(qf::plan::exact(64, qw::basis::db2, tree));
        qu::rng r(11);
        std::vector<cplx> x(64);
        for (auto& v : x) v = cplx{r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
        std::vector<cplx> ref(64), out(64);
        fft.forward(x, ref);
        qu::arena scratch;
        for (int rep = 0; rep < 3; ++rep) {
            fft.forward(x, out, nullptr, scratch);
            for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(ref[i], out[i]);
        }
    }
}

TEST(Workspace, BurgArenaFitMatches) {
    const rr_window w = make_window(200, 5);
    const auto ref = qd::burg_fit(w.x, 16);
    qu::arena scratch;
    const auto got = qd::burg_fit(w.x, 16, scratch);
    EXPECT_EQ(ref.noise_var, got.noise_var);
    ASSERT_EQ(ref.a.size(), got.a.size());
    for (std::size_t i = 0; i < ref.a.size(); ++i) EXPECT_EQ(ref.a[i], got.a[i]);
}

// -------------------------------------- pipeline bit-identity per engine

TEST(Workspace, ReusedWorkspaceBitIdenticalDoubleConventional) {
    check_engine_bit_identity(ql::split_radix_engine(512));
}

TEST(Workspace, ReusedWorkspaceBitIdenticalDoubleWavelet) {
    qf::plan p = qf::plan::exact(512, qw::basis::haar);
    p.assume_real_input = true;  // two_transforms packing feeds real meshes
    check_engine_bit_identity(ql::wavelet_engine(p));
}

TEST(Workspace, ReusedWorkspaceBitIdenticalQ15) {
    ql::fixed_wavelet_engine<15>::transform::config cfg;
    cfg.n = 512;
    check_engine_bit_identity(ql::fixed_wavelet_engine<15>(cfg));
}

TEST(Workspace, ReusedWorkspaceBitIdenticalQ31) {
    ql::fixed_wavelet_engine<31>::transform::config cfg;
    cfg.n = 512;
    check_engine_bit_identity(ql::fixed_wavelet_engine<31>(cfg));
}

TEST(Workspace, ReusedWorkspaceBitIdenticalBurg) {
    check_engine_bit_identity(ql::burg_engine(512, 16, 4.0));
}

// ------------------------------------------------- monitor + cache level

TEST(Workspace, MonitorWithWorkspaceCacheBitIdentical) {
    const auto cfg = qc::psa_config::proposed(
        qf::plan::exact(512, qw::basis::haar));
    qc::monitor_options mopt;
    mopt.window_seconds = 120.0;
    mopt.hop_seconds = 60.0;

    qc::streaming_monitor plain(cfg, mopt);
    qc::streaming_monitor cached(cfg, mopt);
    qc::workspace_cache cache;
    cached.set_scratch(&cache);

    const rr_window rec = make_window(700, 99);
    for (std::size_t i = 0; i < rec.t.size(); ++i) {
        plain.push_beat(rec.t[i], rec.x[i]);
        cached.push_beat(rec.t[i], rec.x[i]);
    }
    EXPECT_GE(plain.windows_completed(), 5u);
    EXPECT_EQ(cache.size(), 1u);
    for (;;) {
        auto a = plain.poll();
        auto b = cached.poll();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a) break;
        EXPECT_EQ(a->bands.lf, b->bands.lf);
        EXPECT_EQ(a->bands.hf, b->bands.hf);
        EXPECT_EQ(a->bands.total, b->bands.total);
        EXPECT_EQ(a->ops, b->ops);
        EXPECT_EQ(a->beats, b->beats);
    }
}

// ------------------------------------------------------ dwt ping-pong

TEST(Workspace, DwtPingPongRoundTrip) {
    qu::rng r(21);
    std::vector<real> x(256);
    for (auto& v : x) v = r.uniform(-1.0, 1.0);
    for (const std::size_t levels : {1u, 3u, 5u}) {
        const auto dec = qw::dwt(x, qw::basis::db2, levels);
        EXPECT_EQ(dec.coeffs.size(), x.size());
        const auto rec = qw::idwt(dec, qw::basis::db2);
        ASSERT_EQ(rec.size(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_NEAR(rec[i], x[i], 1e-9);
    }
}
