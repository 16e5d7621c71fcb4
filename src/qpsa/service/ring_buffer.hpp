// Fixed-capacity single-producer / single-consumer beat ring.
//
// Each session owns one: the ingest edge (one producer -- the socket /
// driver thread feeding that patient) pushes beats, the scheduler (one
// consumer at a time -- the batch worker currently draining the session)
// pops them into the monitor.  Lock-free via acquire/release indices;
// capacity is a power of two so wrap-around is a mask.
//
// A full ring rejects the new beat and counts the drop.  Every window
// needs every beat it spans, so the ring keeps complete history up to the
// drop point: nothing already accepted is ever lost, and only the producer
// writes the head while only the consumer writes the tail.
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

class beat_ring {
public:
    explicit beat_ring(std::size_t capacity_pow2 = 1024)
        : buf_(next_pow2(capacity_pow2)), mask_(buf_.size() - 1) {
        QPSA_EXPECTS(capacity_pow2 >= 2);
    }

    std::size_t capacity() const noexcept { return buf_.size(); }

    /// Producer side.  A full ring returns false (and counts a drop) --
    /// backpressure is the caller's problem, the analysis path never
    /// blocks the ingest edge.
    bool push(beat_sample s) noexcept {
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

    /// Beats rejected because the ring was full.
    std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }

private:
    std::vector<beat_sample> buf_;
    std::size_t mask_;
    std::atomic<std::size_t> head_{0};  ///< next write slot
    std::atomic<std::size_t> tail_{0};  ///< next read slot
    std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace qpsa::service
