#include "qpsa/dsp/window.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace qpsa::dsp {

real window_value(window_kind kind, real u) {
    QPSA_EXPECTS(u >= 0.0 && u <= 1.0);
    switch (kind) {
        case window_kind::rectangular:
            return 1.0;
        case window_kind::hann:
            return 0.5 - 0.5 * std::cos(two_pi * u);
        case window_kind::hamming:
            return 0.54 - 0.46 * std::cos(two_pi * u);
        case window_kind::welch: {
            const real c = 2.0 * u - 1.0;
            return 1.0 - c * c;
        }
        case window_kind::blackman:
            return 0.42 - 0.5 * std::cos(two_pi * u) + 0.08 * std::cos(2.0 * two_pi * u);
    }
    throw std::logic_error("unhandled window kind");
}

namespace {

void sample_window(window_kind kind, std::span<real> w) {
    const std::size_t n = w.size();
    QPSA_EXPECTS(n >= 2);
    for (std::size_t i = 0; i < n; ++i)
        w[i] = window_value(kind, static_cast<real>(i) / static_cast<real>(n - 1));
}

}  // namespace

std::vector<real> make_window(window_kind kind, std::size_t n) {
    std::vector<real> w(n);
    sample_window(kind, w);
    return w;
}

std::span<const real> window_table(window_kind kind, std::size_t n,
                                   util::arena& mem) {
    // The count tells tables of one kind apart; the tag keeps the key
    // clear of other memoized tables.
    constexpr std::uint64_t tag = 0x7461706572ull << 8;  // "taper"
    return mem.memo<real>(tag | static_cast<std::uint64_t>(kind), n,
                          [kind](std::span<real> w) { sample_window(kind, w); });
}

real window_power_gain(window_kind kind) {
    // Closed forms of integral_0^1 w(u)^2 du.
    switch (kind) {
        case window_kind::rectangular:
            return 1.0;
        case window_kind::hann:
            return 0.375;  // 3/8
        case window_kind::hamming:
            return 0.54 * 0.54 + 0.5 * 0.46 * 0.46;
        case window_kind::welch:
            return 8.0 / 15.0;
        case window_kind::blackman:
            return 0.42 * 0.42 + 0.5 * (0.5 * 0.5 + 0.08 * 0.08);
    }
    throw std::logic_error("unhandled window kind");
}

window_kind parse_window(std::string_view name) {
    if (name == "rect" || name == "rectangular") return window_kind::rectangular;
    if (name == "hann") return window_kind::hann;
    if (name == "hamming") return window_kind::hamming;
    if (name == "welch") return window_kind::welch;
    if (name == "blackman") return window_kind::blackman;
    throw std::invalid_argument("unknown window: " + std::string(name));
}

std::string_view window_name(window_kind kind) {
    switch (kind) {
        case window_kind::rectangular:
            return "rectangular";
        case window_kind::hann:
            return "hann";
        case window_kind::hamming:
            return "hamming";
        case window_kind::welch:
            return "welch";
        case window_kind::blackman:
            return "blackman";
    }
    return "?";
}

}  // namespace qpsa::dsp
