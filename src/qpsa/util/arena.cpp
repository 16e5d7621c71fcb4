#include "qpsa/util/arena.hpp"

#include <algorithm>

namespace qpsa::util {

namespace {

constexpr std::size_t k_min_chunk_bytes = 4096;
/// Chunks double up to this size, then grow by the last chunk's size.
constexpr std::size_t k_doubling_limit = 64 * 1024;

constexpr std::size_t align_up(std::size_t v, std::size_t align) noexcept {
    return (v + align - 1) & ~(align - 1);
}

}  // namespace

arena::chunk arena::make_chunk(std::size_t size) {
    auto* p = static_cast<std::byte*>(
        ::operator new(size, std::align_val_t{k_simd_align}));
    return {std::unique_ptr<std::byte[], aligned_delete>{p}, size};
}

arena::arena(std::size_t initial_bytes) {
    if (initial_bytes > 0) {
        const std::size_t size = std::max(initial_bytes, k_min_chunk_bytes);
        chunks_.push_back(make_chunk(size));
    }
}

void* arena::raw_alloc(std::size_t bytes, std::size_t align) {
    QPSA_EXPECTS(align > 0 && (align & (align - 1)) == 0);
    // Chunk bases are k_simd_align-aligned (make_chunk), so any power-of-two
    // alignment up to that is satisfiable by rounding the cursor.
    QPSA_EXPECTS(align <= k_simd_align);
    for (;;) {
        if (cur_ < chunks_.size()) {
            const std::size_t off = align_up(used_, align);
            if (off + bytes <= chunks_[cur_].size) {
                used_ = off + bytes;
                return chunks_[cur_].data.get() + off;
            }
            // The remainder of this chunk is too small; move on.  The
            // skipped tail is reclaimed when the enclosing frame unwinds.
            ++cur_;
            used_ = 0;
            continue;
        }
        // High-water mark still rising: grow geometrically while chunks
        // are small, so a steady workload converges to zero heap traffic
        // after a few calls, then in steps of the last chunk, so a
        // workspace holds little more than its peak.
        const std::size_t prev = chunks_.empty() ? 0 : chunks_.back().size;
        const std::size_t step = prev < k_doubling_limit ? 2 * prev : prev;
        const std::size_t size =
            std::max({bytes + align, step, k_min_chunk_bytes});
        chunks_.push_back(make_chunk(size));
        cur_ = chunks_.size() - 1;
        used_ = 0;
    }
}

std::size_t arena::capacity_bytes() const noexcept {
    std::size_t total = 0;
    for (const chunk& c : chunks_) total += c.size;
    for (const memo_entry& m : memos_) total += m.mem.size;
    return total;
}

}  // namespace qpsa::util
