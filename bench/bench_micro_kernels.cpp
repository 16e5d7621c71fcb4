// Wall-clock microbenchmarks of all spectral kernels (google-benchmark).
//
// Operation counts drive the paper's energy model; this binary provides
// the complementary host-time view: split-radix vs the wavelet
// FFT in its exact / band-dropped / pruned configurations, the DWT, the
// extirpolation, and the end-to-end Fast-Lomb window.
#include <benchmark/benchmark.h>

#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wavelet/dwt.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

using namespace qpsa;

namespace {

/// Pin the kernel table to the ISA a benchmark row requests; restores the
/// process default on scope exit so rows are independent.
struct isa_scope {
    explicit isa_scope(benchmark::State& state, simd::isa which)
        : prev_(simd::active_isa()) {
        if (!simd::set_active_isa(which)) {
            state.SkipWithError("ISA not available on this CPU/build");
            ok_ = false;
        }
    }
    ~isa_scope() { simd::set_active_isa(prev_); }
    bool ok() const noexcept { return ok_; }

private:
    simd::isa prev_;
    bool ok_ = true;
};

/// Register one row per ISA available on this machine (scalar first, so
/// the A/B speedup baseline is always present).
void per_isa(benchmark::internal::Benchmark* b) {
    for (const simd::isa which : simd::available_isas())
        b->Arg(static_cast<long>(which));
}

void set_isa_label(benchmark::State& state) {
    state.SetLabel(
        simd::isa_name(static_cast<simd::isa>(state.range(0))));
}

std::vector<cplx> random_signal(std::size_t n) {
    util::rng r(42);
    std::vector<cplx> x(n);
    for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    return x;
}

void bm_split_radix(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = random_signal(n);
    dsp::fft_split_radix fft(n);
    std::vector<cplx> out(n);
    for (auto _ : state) {
        fft.forward(x, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(bm_split_radix)->Arg(256)->Arg(512)->Arg(1024);

void bm_wavelet_fft(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const int mode = static_cast<int>(state.range(1));
    wfft::plan p = mode == 0 ? wfft::plan::exact(n, wavelet::basis::haar)
                   : mode == 1
                       ? wfft::plan::band_dropped(n, wavelet::basis::haar)
                       : wfft::plan::static_pruned(n, wavelet::basis::haar,
                                                   wfft::twiddle_set::set3);
    const wfft::wavelet_fft fft(p);
    const auto x = random_signal(n);
    std::vector<cplx> out(n);
    for (auto _ : state) {
        fft.forward(x, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(bm_wavelet_fft)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({1024, 2});

void bm_dwt_level(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto basis = static_cast<wavelet::basis>(state.range(1));
    util::rng r(1);
    std::vector<real> x(n);
    for (auto& v : x) v = r.uniform(-1, 1);
    std::vector<real> a(n / 2);
    std::vector<real> d(n / 2);
    for (auto _ : state) {
        wavelet::dwt_level(std::span<const real>(x), basis, a, d);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(bm_dwt_level)
    ->Args({512, static_cast<long>(wavelet::basis::haar)})
    ->Args({512, static_cast<long>(wavelet::basis::db2)})
    ->Args({512, static_cast<long>(wavelet::basis::db4)});

void bm_extirpolate(benchmark::State& state) {
    const int order = static_cast<int>(state.range(0));
    util::rng r(2);
    std::vector<real> t;
    std::vector<real> v;
    real acc = 0.0;
    for (int i = 0; i < 140; ++i) {
        acc += r.uniform(0.6, 1.0);
        t.push_back(acc);
        v.push_back(r.uniform(-1, 1));
    }
    for (auto _ : state) {
        auto mesh = lomb::extirpolate(t, v, 512, order, t.front(), acc * 2.0);
        benchmark::DoNotOptimize(mesh.data());
    }
}
BENCHMARK(bm_extirpolate)->Arg(1)->Arg(2)->Arg(4);

void bm_fast_lomb_window(benchmark::State& state) {
    const bool pruned = state.range(0) != 0;
    util::rng r(3);
    std::vector<real> t;
    std::vector<real> x;
    real acc = 0.0;
    for (int i = 0; i < 140; ++i) {
        acc += 0.8 + r.uniform(-0.1, 0.1);
        t.push_back(acc);
        x.push_back(0.85 + 0.05 * std::sin(0.25 * acc) + r.gaussian(0.01));
    }
    lomb::fast_lomb_options opt;
    opt.ofac = 2.0;
    opt.macc = 4;
    const auto engine =
        pruned ? lomb::make_wavelet_engine(wfft::plan::static_pruned(
                     512, wavelet::basis::haar, wfft::twiddle_set::set3))
               : lomb::make_split_radix_engine(512);
    for (auto _ : state) {
        auto res = lomb::fast_lomb(t, x, *engine, opt);
        benchmark::DoNotOptimize(res.spectrum.power.data());
    }
}
BENCHMARK(bm_fast_lomb_window)->Arg(0)->Arg(1);

// ---- scalar-vs-dispatched A/B rows (one per available ISA) -------------
// Only for kernels with a per-ISA copy: spread4 (order-4 extirpolation)
// and the lane-interleaved split-radix walk.

void bm_extirpolate_isa(benchmark::State& state) {
    isa_scope scope(state, static_cast<simd::isa>(state.range(0)));
    if (!scope.ok()) return;
    set_isa_label(state);
    util::rng r(2);
    std::vector<real> t;
    std::vector<real> v;
    real acc = 0.0;
    for (int i = 0; i < 140; ++i) {
        acc += r.uniform(0.6, 1.0);
        t.push_back(acc);
        v.push_back(r.uniform(-1, 1));
    }
    for (auto _ : state) {
        auto mesh = lomb::extirpolate(t, v, 512, 4, t.front(), acc * 2.0);
        benchmark::DoNotOptimize(mesh.data());
    }
}
BENCHMARK(bm_extirpolate_isa)->Apply(per_isa);

/// Lane-batched multi-window transform vs the same windows sequentially:
/// range(1) == 0 runs W sequential forwards, 1 runs one batched call of
/// the active table's lane width; range(2) is the size (256: the wavelet
/// sub-FFT and Welch segment; 512: the conventional mesh).
void bm_forward_batched(benchmark::State& state) {
    isa_scope scope(state, static_cast<simd::isa>(state.range(0)));
    if (!scope.ok()) return;
    const bool batched = state.range(1) != 0;
    const auto n = static_cast<std::size_t>(state.range(2));
    const std::size_t w = std::max<std::size_t>(2, simd::kernels().lanes);
    dsp::fft_split_radix fft(n);
    std::vector<std::vector<cplx>> ins;
    std::vector<std::vector<cplx>> outs(w);
    std::vector<const cplx*> in_ptrs;
    std::vector<cplx*> out_ptrs;
    for (std::size_t i = 0; i < w; ++i) {
        ins.push_back(random_signal(n));
        outs[i].resize(n);
        in_ptrs.push_back(ins[i].data());
        out_ptrs.push_back(outs[i].data());
    }
    util::arena scratch;
    std::string label(simd::isa_name(simd::active_isa()));
    label += batched ? "/batched" : "/sequential";
    state.SetLabel(label);
    for (auto _ : state) {
        if (batched) {
            fft.forward_batched(in_ptrs, out_ptrs, scratch);
        } else {
            for (std::size_t i = 0; i < w; ++i)
                fft.forward(ins[i], outs[i]);
        }
        benchmark::DoNotOptimize(outs[0].data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * w));
}
void per_isa_ab(benchmark::internal::Benchmark* b) {
    for (const long n : {256L, 512L})
        for (const simd::isa which : simd::available_isas()) {
            b->Args({static_cast<long>(which), 0, n});
            b->Args({static_cast<long>(which), 1, n});
        }
}
BENCHMARK(bm_forward_batched)->Apply(per_isa_ab);

}  // namespace

BENCHMARK_MAIN();
