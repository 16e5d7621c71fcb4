#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <bit>

namespace perfbench {

double process_cpu_us() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto us = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e6 +
               static_cast<double>(tv.tv_usec);
    };
    return us(u.ru_utime) + us(u.ru_stime);
}

double heap_in_use_bytes() {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

std::size_t latency_hist::index(std::uint64_t v) {
    constexpr std::uint64_t sub = std::uint64_t{1} << kSub;
    if (v < sub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSub
    const std::uint64_t mant = (v >> (e - kSub)) - sub;
    return static_cast<std::size_t>(sub + static_cast<std::uint64_t>(e - kSub) * sub +
                                    mant);
}

void latency_hist::bounds(std::size_t idx, double& lo, double& width) {
    constexpr std::size_t sub = std::size_t{1} << kSub;
    if (idx < sub) {
        lo = static_cast<double>(idx);
        width = 1.0;
        return;
    }
    const std::size_t octave = (idx - sub) / sub;  // e - kSub
    const std::size_t mant = (idx - sub) % sub;
    const double scale = static_cast<double>(std::uint64_t{1} << octave);
    lo = static_cast<double>(sub + mant) * scale;
    width = scale;
}

double latency_hist::quantile_ms(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        const double c = static_cast<double>(counts_[i]);
        if (rank < seen + c) {
            double lo = 0.0, width = 0.0;
            bounds(i, lo, width);
            const double frac = (rank - seen + 0.5) / c;
            return (lo + frac * width) / 1e6;
        }
        seen += c;
    }
    return 0.0;
}

}  // namespace perfbench
