// Chunked bump allocator for steady-state zero-allocation hot paths.
//
// The window->spectrum pipeline runs the same transform shape thousands of
// times per second; its scratch needs are identical from call to call, so
// heap traffic there is pure overhead.  An arena hands out typed spans by
// bumping a cursor through stable chunks: memory is requested from the
// heap only while the high-water mark is still rising, after which every
// call is served from memory the arena already owns.
//
// Properties the hot path relies on:
//   * chunks never move -- a span stays valid until its frame unwinds,
//     even if later allocations force the arena to grow;
//   * frames are LIFO (RAII): a kernel opens a frame, allocates freely,
//     and the destructor returns everything in one cursor rewind, so
//     recursive kernels (the wavelet FFT tree) nest naturally;
//   * only trivially destructible element types are accepted -- rewinding
//     runs no destructors.
//
// Not thread-safe: each arena belongs to one thread at a time (the service
// layer keys arenas per worker, see core::workspace_cache).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::util {

class arena {
public:
    /// Every chunk base is aligned to this (one cache line / the widest
    /// SIMD vector the kernel layer uses), so alloc_aligned can hand out
    /// vector-load-friendly spans without over-allocating.
    static constexpr std::size_t k_simd_align = 64;

    /// `initial_bytes` pre-reserves the first chunk (0 defers to first use).
    explicit arena(std::size_t initial_bytes = 0);

    arena(const arena&) = delete;
    arena& operator=(const arena&) = delete;

    /// Uninitialized storage for `count` elements of T.  Contents are
    /// whatever a previous frame left behind: callers must fully write the
    /// span before reading it (or use alloc_zero).
    template <typename T>
    std::span<T> alloc(std::size_t count) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without running destructors");
        if (count == 0) return {};
        void* p = raw_alloc(count * sizeof(T), alignof(T));
        return {static_cast<T*>(p), count};
    }

    /// Uninitialized storage whose base is aligned to `align` bytes
    /// (default 64: aligned SIMD loads/stores on any supported ISA).
    template <typename T>
    std::span<T> alloc_aligned(std::size_t count,
                               std::size_t align = k_simd_align) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without running destructors");
        if (count == 0) return {};
        void* p = raw_alloc(count * sizeof(T), align);
        return {static_cast<T*>(p), count};
    }

    /// Storage value-initialized to T{} (zero for arithmetic types).
    template <typename T>
    std::span<T> alloc_zero(std::size_t count) {
        std::span<T> s = alloc<T>(count);
        for (T& v : s) v = T{};
        return s;
    }

    /// A read-only table kept for the arena's lifetime under `key`: frames
    /// never reclaim it.  The first request fills `count` elements through
    /// `fill(std::span<T>)`; later requests with the same key and count
    /// return that storage.  For per-shape tables a kernel would otherwise
    /// rebuild on every call (taper windows), so a workspace arena holds
    /// one copy per shape it has served.  Callers own the key space.
    template <typename T, typename Fill>
    std::span<const T> memo(std::uint64_t key, std::size_t count, Fill&& fill) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without running destructors");
        const std::size_t bytes = count * sizeof(T);
        for (const memo_entry& m : memos_)
            if (m.key == key && m.bytes == bytes)
                return {reinterpret_cast<const T*>(m.mem.data.get()), count};
        chunk c = make_chunk(bytes > 0 ? bytes : 1);
        const std::span<T> s{reinterpret_cast<T*>(c.data.get()), count};
        fill(s);
        memos_.push_back({key, bytes, std::move(c)});
        return s;
    }

    /// RAII mark/rewind: everything allocated while the frame is alive is
    /// reclaimed when it dies.  Frames must unwind in LIFO order, which
    /// scoping guarantees.
    class frame {
    public:
        explicit frame(arena& a) noexcept
            : arena_(&a), chunk_(a.cur_), used_(a.used_) {}
        ~frame() {
            arena_->cur_ = chunk_;
            arena_->used_ = used_;
        }
        frame(const frame&) = delete;
        frame& operator=(const frame&) = delete;

    private:
        arena* arena_;
        std::size_t chunk_;
        std::size_t used_;
    };

    /// Total bytes owned (the high-water mark, rounded up to chunks, plus
    /// the memoized tables).
    std::size_t capacity_bytes() const noexcept;

private:
    void* raw_alloc(std::size_t bytes, std::size_t align);

    /// Chunk storage comes from aligned operator new so every chunk base
    /// is k_simd_align-aligned -- the invariant behind alloc_aligned.
    struct aligned_delete {
        void operator()(std::byte* p) const noexcept {
            ::operator delete(p, std::align_val_t{k_simd_align});
        }
    };

    struct chunk {
        std::unique_ptr<std::byte[], aligned_delete> data;
        std::size_t size = 0;
    };

    static chunk make_chunk(std::size_t size);

    struct memo_entry {
        std::uint64_t key = 0;
        std::size_t bytes = 0;
        chunk mem;
    };

    std::vector<chunk> chunks_;
    std::vector<memo_entry> memos_;
    std::size_t cur_ = 0;   ///< index of the chunk being bumped
    std::size_t used_ = 0;  ///< bytes consumed in that chunk
};

}  // namespace qpsa::util
