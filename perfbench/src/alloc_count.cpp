// Global allocation counter: replacing these signatures in any TU of the
// binary replaces them binary-wide, so library allocations on every
// thread are counted too.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc{};
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc{};
}

}  // namespace

namespace perfbench {
std::uint64_t heap_allocs() {
    return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
