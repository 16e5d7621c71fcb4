// Shared measurement plumbing of the qpsa perf ledger: clocks, process
// CPU time, heap in use, the binary-wide heap-allocation counter, a
// log-linear latency histogram and the ordered metric list every run
// prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
}

/// Process CPU time (user + system, all threads) in microseconds.
double process_cpu_us();

/// Heap bytes in use (all malloc arenas plus mmap'd blocks).  Used in
/// place of RSS: getrusage's peak RSS carries the parent's peak across
/// exec, so it cannot isolate this process's growth.
double heap_in_use_bytes();

/// Heap allocations made by any thread since process start (operator new
/// is replaced binary-wide in alloc_count.cpp).
std::uint64_t heap_allocs();

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact quantile (linear interpolation) of a sample vector.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Log-linear histogram of non-negative nanosecond samples: exact below
/// 256 ns, 256 sub-buckets per octave above (<= 0.4 % bucket width).
/// Quantiles interpolate by rank inside the bucket.  Fixed size, so
/// recording never allocates once constructed.
class latency_hist {
public:
    latency_hist() : counts_(kBuckets, 0) {}

    void add(std::int64_t ns) {
        const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
        ++counts_[index(v)];
        ++total_;
    }
    std::uint64_t count() const noexcept { return total_; }

    /// q in [0, 1]; milliseconds.
    double quantile_ms(double q) const;

private:
    static constexpr int kSub = 8;
    static constexpr std::size_t kBuckets =
        (std::size_t{1} << kSub) * (64 - kSub + 1);

    static std::size_t index(std::uint64_t v);
    static void bounds(std::size_t idx, double& lo, double& width);

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Latency samples split into equal time slices of the measured phase.
/// A quantile is the median over slices of each slice's quantile: a
/// one-off stall of a shared host moves one slice, not the figure, while a
/// slower system moves every slice.
class sliced_latency {
public:
    explicit sliced_latency(std::size_t slices = 20) : slices_(slices) {}

    /// Measured phase starts at `t0_ns` and lasts about `seconds`.
    void start(std::int64_t t0_ns, double seconds) {
        t0_ = t0_ns;
        slice_ns_ = std::max(1.0, seconds * 1e9 / static_cast<double>(slices_.size()));
    }
    /// A sample of `ns`, attributed to the slice holding `when_ns`.
    void add(std::int64_t when_ns, std::int64_t ns) { slice(when_ns).add(ns); }

    double quantile_ms(double q) const {
        std::vector<double> per;
        for (const latency_hist& h : slices_)
            if (h.count() > 0) per.push_back(h.quantile_ms(q));
        return median(std::move(per));
    }

private:
    latency_hist& slice(std::int64_t when_ns) {
        const double pos = static_cast<double>(when_ns - t0_) / slice_ns_;
        const auto last = static_cast<double>(slices_.size() - 1);
        return slices_[static_cast<std::size_t>(std::clamp(pos, 0.0, last))];
    }

    std::vector<latency_hist> slices_;
    std::int64_t t0_ = 0;
    double slice_ns_ = 1.0;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Ordered metric list (printing order == insertion order).
class metric_list {
public:
    void add(std::string name, double value, std::string unit) {
        items_.push_back({std::move(name), value, std::move(unit)});
    }
    const std::vector<metric>& items() const noexcept { return items_; }

private:
    std::vector<metric> items_;
};

}  // namespace perfbench
