// Tracing for the ledger's traced run: a timing decorator interposed on
// every lomb::fft_engine through core::engine_registry, per-kind engine
// tallies, and an in-memory span log written out when the run ends.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qpsa/core/engine_registry.hpp"

namespace qpsa::lomb {
class fft_engine;
}

namespace perfbench {

/// Ledger engine kinds, in printing order (kind_name() labels).
inline constexpr std::array<const char*, 8> kLedgerKinds = {
    "conventional", "wavelet-exact", "wavelet-pruned", "fixed-q15",
    "fixed-q31",    "burg-ar",       "resampled",      "welch"};
inline constexpr std::size_t kKindSlots = kLedgerKinds.size() + 1;  // + other

/// Slot of a kind label (kLedgerKinds.size() for anything else).
std::size_t kind_slot(const std::string& kind);

/// Whole-window kinds bypass extirpolation and the Lomb combine.
bool whole_window_kind(std::size_t slot);

struct engine_totals {
    std::uint64_t calls = 0;  ///< decorated virtual calls
    std::uint64_t items = 0;  ///< transforms / estimates those calls ran
    std::uint64_t ns = 0;     ///< wall time inside them
};

/// One recorded span.  `parent` is the id of the span that caused it (0:
/// the run itself).
struct span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* name = "";
    const char* kind = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class tracer {
public:
    static tracer& instance();

    /// Interpose the timing decorator on every registered engine factory
    /// (engines built afterwards are wrapped; already-built ones are not).
    void install();
    /// Restore the library's own engine factories.
    void uninstall();

    /// Undecorated engine for a config (the library's own factories).
    std::shared_ptr<const qpsa::lomb::fft_engine> build_plain(
        const qpsa::core::psa_config& cfg) const;

    void add(std::size_t slot, std::uint64_t items, std::int64_t ns) noexcept;
    engine_totals totals(std::size_t slot) const noexcept;
    void reset_totals() noexcept;

    /// Span log: fixed capacity, lock-free slot claim; spans beyond the
    /// capacity are dropped.
    std::uint64_t next_span_id() noexcept {
        return span_ids_.fetch_add(1, std::memory_order_relaxed);
    }
    void record(const span& s) noexcept;
    /// Parent id engine spans attach to (the feeder sets it around pumps).
    void set_parent(std::uint64_t id) noexcept {
        parent_.store(id, std::memory_order_relaxed);
    }
    std::uint64_t parent() const noexcept {
        return parent_.load(std::memory_order_relaxed);
    }
    /// Engine spans kept per run (the rest only feed the tallies).
    bool want_engine_span() noexcept {
        return engine_spans_.fetch_add(1, std::memory_order_relaxed) <
               kEngineSpanCap;
    }
    /// Write kept spans as JSON lines; returns false on I/O failure.
    bool write_spans(const std::string& path) const;

private:
    tracer();

    static constexpr std::size_t kSpanCap = std::size_t{1} << 17;
    static constexpr std::uint64_t kEngineSpanCap = 20000;

    struct slot_counters {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> items{0};
        std::atomic<std::uint64_t> ns{0};
    };

    qpsa::core::engine_registry plain_;  ///< the library's factories, private copy
    std::array<slot_counters, kKindSlots> slots_;
    std::vector<span> spans_;
    std::atomic<std::size_t> span_count_{0};
    std::atomic<std::uint64_t> span_ids_{1};
    std::atomic<std::uint64_t> parent_{0};
    std::atomic<std::uint64_t> engine_spans_{0};
};

/// RAII span recorded on destruction.
class scoped_span {
public:
    scoped_span(const char* name, const char* kind = "",
                std::uint64_t parent = 0);
    ~scoped_span();
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;
    std::uint64_t id() const noexcept { return s_.id; }

private:
    span s_;
};

}  // namespace perfbench
