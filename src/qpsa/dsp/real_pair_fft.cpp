#include "qpsa/dsp/real_pair_fft.hpp"

#include "qpsa/counting/op_counter.hpp"

namespace qpsa::dsp {

std::vector<cplx> pack_real_pair(std::span<const real> a, std::span<const real> b) {
    QPSA_EXPECTS(!a.empty());
    std::vector<cplx> z(a.size());
    pack_real_pair(a, b, z);
    return z;
}

void pack_real_pair(std::span<const real> a, std::span<const real> b,
                    std::span<cplx> out) {
    QPSA_EXPECTS(a.size() == b.size());
    QPSA_EXPECTS(out.size() == a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = cplx{a[i], b[i]};
}

real_pair_bin unpack_bin(std::span<const cplx> z, std::size_t k) {
    const std::size_t n = z.size();
    QPSA_EXPECTS(k < n);
    const cplx zk = z[k];
    const cplx zm = z[(n - k) % n];
    real_pair_bin out;
    out.a = cplx{0.5 * (zk.real() + zm.real()), 0.5 * (zk.imag() - zm.imag())};
    out.b = cplx{0.5 * (zk.imag() + zm.imag()), 0.5 * (zm.real() - zk.real())};
    counting::count_adds(4);
    counting::count_muls(4);
    return out;
}

void unpack_real_pair(std::span<const cplx> z, std::span<cplx> a, std::span<cplx> b) {
    QPSA_EXPECTS(a.size() == z.size());
    QPSA_EXPECTS(b.size() == z.size());
    for (std::size_t k = 0; k < z.size(); ++k) {
        const real_pair_bin bin = unpack_bin(z, k);
        a[k] = bin.a;
        b[k] = bin.b;
    }
}

}  // namespace qpsa::dsp
