// Fixed-capacity single-producer / single-consumer beat ring.
//
// Each session owns one: the ingest edge (one producer -- the socket /
// driver thread feeding that patient) pushes beats, the scheduler (one
// consumer at a time -- the batch worker currently draining the session)
// pops them into the monitor.  Lock-free via acquire/release indices;
// capacity is a power of two so wrap-around is a mask.
//
// Overflow policy: by default a full ring rejects the new beat (complete
// history up to the drop point -- nothing already accepted is ever lost).
// The optional overwrite_oldest mode instead evicts the oldest buffered
// beat, for deployments that prefer freshness over completeness (a live
// dashboard wants the latest rhythm, not minutes-old backlog).  Overwrite
// requires the producer to move the consumer's index, so that mode guards
// push/pop with a tiny spinlock: beats arrive at ~1 Hz per patient, and a
// handful of nanoseconds per beat is a fair price for the eviction being
// race-free (the indices stay release-published, so size()/empty() remain
// lock-free for the scheduler's readiness scan).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::service {

/// One ingested heartbeat: absolute beat time + RR interval (seconds).
struct beat_sample {
    real t = 0.0;
    real rr = 0.0;

    bool operator==(const beat_sample&) const = default;
};

/// What a full ring does with the next beat.
enum class overflow_policy : std::uint8_t {
    reject,            ///< drop the incoming beat (count it), keep history
    overwrite_oldest,  ///< evict the oldest buffered beat, keep freshness
};

class beat_ring {
public:
    explicit beat_ring(std::size_t capacity_pow2 = 1024,
                       overflow_policy policy = overflow_policy::reject)
        : buf_(next_pow2(capacity_pow2)),
          mask_(buf_.size() - 1),
          policy_(policy) {
        QPSA_EXPECTS(capacity_pow2 >= 2);
    }

    std::size_t capacity() const noexcept { return buf_.size(); }
    overflow_policy policy() const noexcept { return policy_; }

    /// Producer side.  Under the reject policy a full ring returns false
    /// (and counts a drop) -- backpressure is the caller's problem, the
    /// analysis path never blocks the ingest edge.  Under overwrite the
    /// push always succeeds; a full ring evicts its oldest beat (counted
    /// in overwritten()).
    bool push(beat_sample s) noexcept {
        if (policy_ == overflow_policy::overwrite_oldest) {
            const spin_guard g(lock_);
            const std::size_t head = head_.load(std::memory_order_relaxed);
            const std::size_t tail = tail_.load(std::memory_order_relaxed);
            if (head - tail == buf_.size()) {
                tail_.store(tail + 1, std::memory_order_release);
                overwritten_.fetch_add(1, std::memory_order_relaxed);
            }
            buf_[head & mask_] = s;
            head_.store(head + 1, std::memory_order_release);
            return true;
        }
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        if (head - tail == buf_.size()) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        buf_[head & mask_] = s;
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /// Consumer side.  Returns false when empty.
    bool pop(beat_sample& out) noexcept {
        if (policy_ == overflow_policy::overwrite_oldest) {
            const spin_guard g(lock_);
            const std::size_t tail = tail_.load(std::memory_order_relaxed);
            const std::size_t head = head_.load(std::memory_order_relaxed);
            if (tail == head) return false;
            out = buf_[tail & mask_];
            tail_.store(tail + 1, std::memory_order_release);
            return true;
        }
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t head = head_.load(std::memory_order_acquire);
        if (tail == head) return false;
        out = buf_[tail & mask_];
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /// Beats currently buffered (approximate under concurrency).
    std::size_t size() const noexcept {
        return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    }
    bool empty() const noexcept { return size() == 0; }

    /// Beats rejected because the ring was full (reject policy).
    std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    /// Accepted beats later evicted unread (overwrite policy).
    std::uint64_t overwritten() const noexcept {
        return overwritten_.load(std::memory_order_relaxed);
    }

private:
    struct spin_guard {
        explicit spin_guard(std::atomic_flag& f) noexcept : f_(f) {
            while (f_.test_and_set(std::memory_order_acquire)) {}
        }
        ~spin_guard() { f_.clear(std::memory_order_release); }
        std::atomic_flag& f_;
    };

    std::vector<beat_sample> buf_;
    std::size_t mask_;
    overflow_policy policy_;
    std::atomic<std::size_t> head_{0};  ///< next write slot
    std::atomic<std::size_t> tail_{0};  ///< next read slot
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> overwritten_{0};
    std::atomic_flag lock_ = ATOMIC_FLAG_INIT;  ///< overwrite mode only
};

}  // namespace qpsa::service
