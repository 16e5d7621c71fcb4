// Heap allocations of steady-state Db2-lifting wavelet forwards.
//
// The lifting passes run in their output spans and the DWT stage draws
// its lanes from the caller's arena, so once that arena has grown to its
// high-water mark a forward touches the heap zero times, at real and at
// complex input alike.  This binary replaces the global operator new to
// count every allocation, so it holds no other tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wavelet/lifting.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc{};
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a) / a * a;  // a non-zero multiple
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using qpsa::cplx;
using qpsa::real;
namespace qf = qpsa::wfft;
namespace qw = qpsa::wavelet;

/// Heap allocations per forward over `calls` forwards through one reused
/// arena, after two warm-up forwards have grown it.
double allocs_per_forward(bool real_in, std::size_t calls) {
    qf::plan p = qf::plan::exact(512, qw::basis::db2);
    p.use_db2_lifting = true;
    p.assume_real_input = real_in;
    const qf::wavelet_fft fft(p);
    qpsa::util::rng r(real_in ? 3 : 4);
    std::vector<cplx> in(p.n);
    for (auto& v : in)
        v = cplx{r.uniform(-1.0, 1.0), real_in ? 0.0 : r.uniform(-1.0, 1.0)};
    std::vector<cplx> out(p.n);
    qf::exec_stats st;
    qpsa::util::arena scratch;
    fft.forward(in, out, &st, scratch);
    fft.forward(in, out, &st, scratch);
    const std::uint64_t before = g_allocs.load();
    for (std::size_t i = 0; i < calls; ++i) fft.forward(in, out, &st, scratch);
    const std::uint64_t after = g_allocs.load();
    return static_cast<double>(after - before) / static_cast<double>(calls);
}

}  // namespace

TEST(Db2LiftingAllocTest, CounterSeesLibraryAllocations) {
    // The counter is live: a library call that does allocate shows up.
    const std::uint64_t before = g_allocs.load();
    const auto y = qf::wavelet_fft(qf::plan::exact(64, qw::basis::db2))
                       .forward_copy(std::vector<cplx>(64));
    EXPECT_GT(g_allocs.load(), before);
    EXPECT_EQ(y.size(), 64u);
}

TEST(Db2LiftingAllocTest, SteadyStateForwardsDoNotAllocate) {
    EXPECT_EQ(allocs_per_forward(/*real_in=*/true, 16), 0.0);
    EXPECT_EQ(allocs_per_forward(/*real_in=*/false, 16), 0.0);
}

TEST(Db2LiftingAllocTest, LiftingAnalysisDoesNotAllocate) {
    std::vector<real> x(256);
    qpsa::util::rng r(5);
    for (auto& v : x) v = r.uniform(-1.0, 1.0);
    std::vector<real> a(128), d(128);
    const std::uint64_t before = g_allocs.load();
    qw::lifting_db2_analysis(x, a, d);
    qw::lifting_db2_analysis_conv(x, a, d);
    EXPECT_EQ(g_allocs.load(), before);
}
