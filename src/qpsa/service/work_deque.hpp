// Fixed-range work-stealing deque for the drain scheduler.
//
// Chase-Lev-style ends: the owning worker takes units from the front (its
// dealt range in index order, so same-engine runs stay cache-hot), thieves
// steal from the back (the unit farthest from the owner's current run, so
// a steal perturbs the owner's locality least).  One simplification the
// drain pass permits: every unit is dealt before the worker tasks start
// and nothing is pushed mid-pass, so the classic bottom-push/steal races
// (and their ABA hazards) cannot occur -- both ends synchronize through a
// single packed head|tail word and one CAS per claim, which keeps the
// fast path at one atomic RMW whether the claim is a take or a steal.
//
// Determinism note: the deque decides only WHICH worker drains a unit,
// never what a unit computes or the order unit results are merged (the
// scheduler merges in slice order at the pass barrier), so any steal
// interleaving yields bit-identical fleet results.
#pragma once

#include <atomic>
#include <cstdint>

namespace qpsa::service {

class alignas(64) work_deque {
public:
    /// Deal the unit index range [begin, end) to this deque.  Must not
    /// run concurrently with take/steal (the scheduler deals before the
    /// pass's worker tasks are submitted).
    void reset(std::uint32_t begin, std::uint32_t end) noexcept {
        range_.store(pack(begin, end), std::memory_order_relaxed);
    }

    /// Owner end: claim the lowest remaining unit index.
    bool take(std::uint32_t& idx) noexcept {
        std::uint64_t r = range_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint32_t head = unpack_head(r);
            const std::uint32_t tail = unpack_tail(r);
            if (head >= tail) return false;
            if (range_.compare_exchange_weak(r, pack(head + 1, tail),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
                idx = head;
                return true;
            }
        }
    }

    /// Thief end: claim the highest remaining unit index.
    bool steal(std::uint32_t& idx) noexcept {
        std::uint64_t r = range_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint32_t head = unpack_head(r);
            const std::uint32_t tail = unpack_tail(r);
            if (head >= tail) return false;
            if (range_.compare_exchange_weak(r, pack(head, tail - 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
                idx = tail - 1;
                return true;
            }
        }
    }

    bool empty() const noexcept {
        const std::uint64_t r = range_.load(std::memory_order_relaxed);
        return unpack_head(r) >= unpack_tail(r);
    }

private:
    static constexpr std::uint64_t pack(std::uint32_t head,
                                        std::uint32_t tail) noexcept {
        return (static_cast<std::uint64_t>(head) << 32) | tail;
    }
    static constexpr std::uint32_t unpack_head(std::uint64_t r) noexcept {
        return static_cast<std::uint32_t>(r >> 32);
    }
    static constexpr std::uint32_t unpack_tail(std::uint64_t r) noexcept {
        return static_cast<std::uint32_t>(r);
    }

    // alignas(64) keeps neighbouring per-worker deques off one cache
    // line, so an owner's CAS does not bounce a thief's line.
    std::atomic<std::uint64_t> range_{0};
};

}  // namespace qpsa::service
