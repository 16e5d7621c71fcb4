// Iterative radix-2 decimation-in-time FFT with precomputed twiddles and
// operation counting: the tests' second reference next to split-radix and
// the inverse transform of the round-trip tests (header-only; the library
// has no radix-2 transform).
#pragma once

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::dsp {

/// Reusable radix-2 plan for a fixed power-of-two size.
class fft_radix2 {
public:
    explicit fft_radix2(std::size_t n)
        : n_(n), levels_(log2_exact(n)), bitrev_(n), twiddles_(n / 2) {
        QPSA_EXPECTS(is_pow2(n) && n >= 2);
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t r = 0;
            std::size_t v = i;
            for (unsigned b = 0; b < levels_; ++b) {
                r = (r << 1) | (v & 1);
                v >>= 1;
            }
            bitrev_[i] = r;
        }
        for (std::size_t k = 0; k < n / 2; ++k) {
            const real ang = -two_pi * static_cast<real>(k) / static_cast<real>(n);
            twiddles_[k] = cplx{std::cos(ang), std::sin(ang)};
        }
    }

    std::size_t size() const noexcept { return n_; }

    /// In-place forward transform.  data.size() must equal size().
    /// Counts real adds/muls into the active counting scope; twiddles
    /// W^0 = 1 and W^{N/4} = -i are applied without multiplications, as a
    /// production implementation would.
    void forward(std::span<cplx> data) const { transform(data, false); }

    /// In-place inverse transform including the 1/N scaling.
    void inverse(std::span<cplx> data) const { transform(data, true); }

    /// Out-of-place convenience.
    std::vector<cplx> forward_copy(std::span<const cplx> in) const {
        std::vector<cplx> out(in.begin(), in.end());
        forward(out);
        return out;
    }

private:
    void transform(std::span<cplx> data, bool inverse) const {
        QPSA_EXPECTS(data.size() == n_);
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t j = bitrev_[i];
            if (j > i) std::swap(data[i], data[j]);
        }
        for (std::size_t len = 2; len <= n_; len <<= 1) {
            const std::size_t half = len / 2;
            const std::size_t step = n_ / len;
            for (std::size_t base = 0; base < n_; base += len) {
                for (std::size_t k = 0; k < half; ++k) {
                    cplx w = twiddles_[k * step];
                    if (inverse) w = std::conj(w);
                    const std::size_t i0 = base + k;
                    const std::size_t i1 = base + k + half;
                    cplx t;
                    if (k == 0) {
                        t = data[i1];  // W^0 = 1: no multiply
                    } else if (4 * k == len) {
                        // W^{N/4} = -i (or +i inverse): swap/negate, no multiply
                        const cplx v = data[i1];
                        t = inverse ? cplx{-v.imag(), v.real()}
                                    : cplx{v.imag(), -v.real()};
                    } else {
                        t = w * data[i1];
                        counting::count_cmul();
                    }
                    data[i1] = data[i0] - t;
                    data[i0] = data[i0] + t;
                    counting::count_cadd(2);
                }
            }
        }
        if (inverse) {
            const real inv_n = 1.0 / static_cast<real>(n_);
            for (auto& v : data) v *= inv_n;
            counting::count_cscale(n_);
        }
    }

    std::size_t n_;
    unsigned levels_;
    std::vector<std::size_t> bitrev_;
    std::vector<cplx> twiddles_;  ///< W_N^k = exp(-2 pi i k / N), k < N/2
};

}  // namespace qpsa::dsp
