#include "qpsa/wavelet/lifting.hpp"

#include <cmath>

#include "qpsa/counting/op_counter.hpp"

namespace qpsa::wavelet {

namespace {
const real k_sqrt3 = std::sqrt(3.0);
const real k_c1 = k_sqrt3 / 4.0;
const real k_c2 = (k_sqrt3 - 2.0) / 4.0;
const real k_sa = (k_sqrt3 - 1.0) / sqrt2;  // final scale of s
const real k_sd = (k_sqrt3 + 1.0) / sqrt2;  // final scale of d
}  // namespace

void lifting_db2_analysis(std::span<const real> x, std::span<real> out_a,
                          std::span<real> out_d) {
    const std::size_t n = x.size();
    QPSA_EXPECTS(n >= 4 && n % 2 == 0);
    const std::size_t half = n / 2;
    QPSA_EXPECTS(out_a.size() == half);
    QPSA_EXPECTS(out_d.size() == half);

    // The three lifting passes run in the outputs: s1 in out_a, d1 in
    // out_d.  The last pass rewrites both front to back, so only d1[0],
    // which its final update reads across the circular wrap, is kept
    // aside.  The closed-form tally matches the per-element counts.
    const std::span<real> s1 = out_a;
    const std::span<real> d1 = out_d;
    for (std::size_t l = 0; l < half; ++l)
        s1[l] = x[2 * l] + k_sqrt3 * x[2 * l + 1];
    d1[0] = x[1] - k_c1 * s1[0] - k_c2 * s1[half - 1];
    for (std::size_t l = 1; l < half; ++l)
        d1[l] = x[2 * l + 1] - k_c1 * s1[l] - k_c2 * s1[l - 1];
    const real d1_first = d1[0];
    for (std::size_t l = 0; l + 1 < half; ++l) {
        out_a[l] = k_sa * (s1[l] - d1[l + 1]);
        out_d[l] = k_sd * d1[l];
    }
    out_a[half - 1] = k_sa * (s1[half - 1] - d1_first);
    out_d[half - 1] = k_sd * d1[half - 1];
    counting::count_muls(5 * half);
    counting::count_adds(4 * half);
}

void lifting_db2_analysis_conv(std::span<const real> x, std::span<real> out_a,
                               std::span<real> out_d) {
    lifting_db2_analysis(x, out_a, out_d);
    // d_conv[j] = -d_lift[(j + 1) mod half]: rotate in place.
    const std::size_t half = out_d.size();
    const real d_first = out_d[0];
    for (std::size_t j = 0; j + 1 < half; ++j) out_d[j] = -out_d[j + 1];
    out_d[half - 1] = -d_first;
}

void lifting_db2_synthesis(std::span<const real> a, std::span<const real> d,
                           std::span<real> out_x) {
    const std::size_t half = a.size();
    QPSA_EXPECTS(d.size() == half);
    QPSA_EXPECTS(out_x.size() == 2 * half);

    std::vector<real> s1(half);
    std::vector<real> d1(half);
    for (std::size_t l = 0; l < half; ++l) d1[l] = d[l] / k_sd;
    for (std::size_t l = 0; l < half; ++l) {
        const std::size_t lp1 = (l + 1) % half;
        s1[l] = a[l] / k_sa + d1[lp1];
    }
    for (std::size_t l = 0; l < half; ++l) {
        const std::size_t lm1 = (l + half - 1) % half;
        const real odd = d1[l] + k_c1 * s1[l] + k_c2 * s1[lm1];
        out_x[2 * l + 1] = odd;
        out_x[2 * l] = s1[l] - k_sqrt3 * odd;
    }
    counting::count_muls(5 * half);
    counting::count_adds(4 * half);
    counting::count_divs(0);
}

}  // namespace qpsa::wavelet
