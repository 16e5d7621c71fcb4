// Ablation (extension): fixed-point wordlength as an orthogonal quality
// knob.
//
// The paper scales quality by pruning operations; an embedded deployment
// can additionally scale the datapath wordlength.  This bench executes
// the wavelet FFT entirely in fixed_point<F> arithmetic (saturating,
// round-to-nearest, block-floating shifts) for several fractional
// precisions and reports the spectral error next to the pruning modes,
// placing both knobs on one quality axis.
#include <iostream>

#include "common.hpp"
#include "qpsa/fixedpoint/fixed_point.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/stats.hpp"
#include "qpsa/wfft/fixed_wavelet_fft.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

using namespace qpsa;

namespace {

/// Bins the HRV pipeline actually reads (ULF/LF/HF end below bin ~100 of
/// a 512 mesh over a 2-minute window); quality comparisons between the
/// two knobs are made over this in-band range.
constexpr std::size_t k_band_bins = 100;

/// In-band error of the full fixed-point datapath against the double
/// engine (accounting for the deterministic 1/N block-floating scale).
template <unsigned F>
real fixed_engine_rel_error(const wfft::wavelet_fft& exact,
                            const std::vector<std::vector<cplx>>& inputs) {
    using fwf = wfft::fixed_wavelet_fft<F>;
    real num = 0.0;
    real den = 0.0;
    for (const auto& in : inputs) {
        const std::size_t n = in.size();
        fwf fft({.n = n});
        std::vector<typename fwf::fcplx> fin(n);
        for (std::size_t i = 0; i < n; ++i)
            fin[i] = {typename fwf::scalar(in[i].real()),
                      typename fwf::scalar(0.0)};
        std::vector<typename fwf::fcplx> fout(n);
        util::arena scratch;
        fft.forward(fin, fout, scratch);
        const auto ref = exact.forward_copy(in);
        const auto scale = static_cast<real>(n);
        for (std::size_t i = 1; i <= k_band_bins; ++i) {
            const cplx got{fout[i].re.to_double() * scale,
                           fout[i].im.to_double() * scale};
            num += sqr_mag(got - ref[i]);
            den += sqr_mag(ref[i]);
        }
    }
    return std::sqrt(num / den);
}

}  // namespace

int main() {
    const std::size_t n = 512;
    util::print_section(std::cout,
                        "ablation (extension) -- precision scaling: "
                        "input wordlength vs spectral error (Haar, N=512)");

    auto inputs = bench::harvest_fft_inputs(2, 600.0, n);
    // Keep only real meshes (the pipeline feeds real data) and normalize
    // into the fixed-point range.
    for (auto& in : inputs) {
        real peak = 0.0;
        for (auto& v : in) {
            v = cplx{v.real(), 0.0};
            peak = std::max(peak, std::abs(v.real()));
        }
        if (peak > 0.0)
            for (auto& v : in) v /= 2.5 * peak;
    }

    const wfft::wavelet_fft exact(wfft::plan::exact(n, wavelet::basis::haar));

    util::table t({"quality knob", "setting", "rel spectral err"});
    t.add_row({"wordlength", "Q1.23",
               util::table::fmt_pct(fixed_engine_rel_error<23>(exact, inputs), 4)});
    t.add_row({"wordlength", "Q1.19",
               util::table::fmt_pct(fixed_engine_rel_error<19>(exact, inputs), 4)});
    t.add_row({"wordlength", "Q1.15",
               util::table::fmt_pct(fixed_engine_rel_error<15>(exact, inputs), 3)});
    t.add_row({"wordlength", "Q1.11",
               util::table::fmt_pct(fixed_engine_rel_error<11>(exact, inputs), 2)});

    for (const auto set : {wfft::twiddle_set::set1, wfft::twiddle_set::set2,
                           wfft::twiddle_set::set3}) {
        const wfft::wavelet_fft pruned(
            wfft::plan::static_pruned(n, wavelet::basis::haar, set));
        real num = 0.0;
        real den = 0.0;
        for (const auto& in : inputs) {
            const auto ref = exact.forward_copy(in);
            const auto got = pruned.forward_copy(in);
            for (std::size_t i = 1; i <= k_band_bins; ++i) {
                num += sqr_mag(got[i] - ref[i]);
                den += sqr_mag(ref[i]);
            }
        }
        t.add_row({"pruning (band+set, in-band)", wfft::set_name(set),
                   util::table::fmt_pct(std::sqrt(num / den), 2)});
    }
    t.print(std::cout);
    std::cout << "\nreading: a 16-bit (Q1.15) datapath sits far below the "
                 "pruning modes' distortion, so wordlength scaling is "
                 "quality-neutral next to the paper's approximations until "
                 "~12 bits -- the two knobs compose.\n";
    return 0;
}
