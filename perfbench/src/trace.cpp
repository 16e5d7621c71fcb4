#include "trace.hpp"

#include <cstdio>

#include "harness.hpp"
#include "qpsa/core/psa_config.hpp"
#include "qpsa/lomb/engine_builders.hpp"
#include "qpsa/lomb/fft_engine.hpp"
#include "workload.hpp"

namespace perfbench {

namespace lomb = qpsa::lomb;

std::size_t kind_slot(const std::string& kind) {
    for (std::size_t i = 0; i < kLedgerKinds.size(); ++i)
        if (kind == kLedgerKinds[i]) return i;
    return kLedgerKinds.size();
}

bool whole_window_kind(std::size_t slot) {
    const std::string k = slot < kLedgerKinds.size() ? kLedgerKinds[slot] : "";
    return k == "burg-ar" || k == "resampled" || k == "welch";
}

namespace {

/// Times one decorated call into the tracer's per-kind tallies, and keeps
/// the first few thousand as spans under the feeder's current pump.
class call_timer {
public:
    call_timer(std::size_t slot, std::uint64_t items) noexcept
        : slot_(slot), items_(items), start_(now_ns()) {}
    ~call_timer() {
        const std::int64_t end = now_ns();
        tracer& t = tracer::instance();
        t.add(slot_, items_, end - start_);
        if (t.want_engine_span()) {
            span s;
            s.id = t.next_span_id();
            s.parent = t.parent();
            s.name = "lomb.engine";
            s.kind = slot_ < kLedgerKinds.size() ? kLedgerKinds[slot_] : "other";
            s.start_ns = start_;
            s.end_ns = end;
            t.record(s);
        }
    }
    call_timer(const call_timer&) = delete;
    call_timer& operator=(const call_timer&) = delete;

private:
    std::size_t slot_;
    std::uint64_t items_;
    std::int64_t start_;
};

/// Forwards every fft_engine virtual to the wrapped engine, timing the
/// work-carrying ones.  Pure pass-through: outputs and op tallies are the
/// inner engine's own.
class timed_engine final : public lomb::fft_engine {
public:
    timed_engine(std::shared_ptr<const lomb::fft_engine> inner, std::size_t slot)
        : inner_(std::move(inner)), slot_(slot) {}

    std::size_t size() const noexcept override { return inner_->size(); }
    std::string name() const override { return inner_->name(); }

    using lomb::fft_engine::estimate;
    using lomb::fft_engine::forward;

    void forward(std::span<const qpsa::cplx> in, std::span<qpsa::cplx> out,
                 qpsa::wfft::exec_stats* stats) const override {
        call_timer t(slot_, 1);
        inner_->forward(in, out, stats);
    }
    void forward(std::span<const qpsa::cplx> in, std::span<qpsa::cplx> out,
                 qpsa::wfft::exec_stats* stats,
                 qpsa::util::arena& scratch) const override {
        call_timer t(slot_, 1);
        inner_->forward(in, out, stats, scratch);
    }
    std::size_t batch_width() const noexcept override {
        return inner_->batch_width();
    }
    void forward_batched(std::span<const batch_item> items,
                         qpsa::util::arena& scratch) const override {
        call_timer t(slot_, items.size());
        inner_->forward_batched(items, scratch);
    }
    bool whole_window() const noexcept override { return inner_->whole_window(); }
    void estimate(std::span<const qpsa::real> t, std::span<const qpsa::real> x,
                  const lomb::estimate_grid& grid, qpsa::wfft::exec_stats* stats,
                  qpsa::util::arena& scratch,
                  qpsa::dsp::sampled_spectrum& out) const override {
        call_timer tm(slot_, 1);
        inner_->estimate(t, x, grid, stats, scratch, out);
    }
    void estimate(std::span<const qpsa::real> t, std::span<const qpsa::real> x,
                  const lomb::estimate_grid& grid, qpsa::wfft::exec_stats* stats,
                  qpsa::util::arena& scratch, qpsa::dsp::sampled_spectrum& out,
                  const lomb::hop_ctx* ctx) const override {
        call_timer tm(slot_, 1);
        inner_->estimate(t, x, grid, stats, scratch, out, ctx);
    }

private:
    std::shared_ptr<const lomb::fft_engine> inner_;
    std::size_t slot_;
};

}  // namespace

tracer::tracer() : spans_(kSpanCap) {
    lomb::register_builtin_engines(plain_);
}

tracer& tracer::instance() {
    static tracer t;
    return t;
}

void tracer::install() {
    auto& reg = qpsa::core::engine_registry::instance();
    for (std::size_t i = 0; i < qpsa::core::engine_spec_count; ++i) {
        if (!plain_.has_builder(i)) continue;
        reg.register_builder(i, [this](const qpsa::core::psa_config& cfg) {
            return std::shared_ptr<const lomb::fft_engine>(
                std::make_shared<const timed_engine>(plain_.build(cfg),
                                                     kind_slot(kind_name(cfg))));
        });
    }
}

void tracer::uninstall() {
    lomb::register_builtin_engines(qpsa::core::engine_registry::instance());
}

std::shared_ptr<const lomb::fft_engine> tracer::build_plain(
    const qpsa::core::psa_config& cfg) const {
    return plain_.build(cfg);
}

void tracer::add(std::size_t slot, std::uint64_t items, std::int64_t ns) noexcept {
    slot_counters& c = slots_[slot < kKindSlots ? slot : kKindSlots - 1];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.items.fetch_add(items, std::memory_order_relaxed);
    c.ns.fetch_add(static_cast<std::uint64_t>(ns > 0 ? ns : 0),
                   std::memory_order_relaxed);
}

engine_totals tracer::totals(std::size_t slot) const noexcept {
    const slot_counters& c = slots_[slot];
    return {c.calls.load(std::memory_order_relaxed),
            c.items.load(std::memory_order_relaxed),
            c.ns.load(std::memory_order_relaxed)};
}

void tracer::reset_totals() noexcept {
    for (slot_counters& c : slots_) {
        c.calls.store(0, std::memory_order_relaxed);
        c.items.store(0, std::memory_order_relaxed);
        c.ns.store(0, std::memory_order_relaxed);
    }
}

void tracer::record(const span& s) noexcept {
    const std::size_t i = span_count_.fetch_add(1, std::memory_order_relaxed);
    if (i < spans_.size()) spans_[i] = s;
}

bool tracer::write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t n =
        std::min(span_count_.load(std::memory_order_relaxed), spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"kind\":\"%s\","
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.name, s.kind,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

scoped_span::scoped_span(const char* name, const char* kind, std::uint64_t parent) {
    tracer& t = tracer::instance();
    s_.id = t.next_span_id();
    s_.parent = parent;
    s_.name = name;
    s_.kind = kind;
    s_.start_ns = now_ns();
}

scoped_span::~scoped_span() {
    s_.end_ns = now_ns();
    tracer::instance().record(s_);
}

}  // namespace perfbench
