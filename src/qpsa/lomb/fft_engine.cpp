#include "qpsa/lomb/fft_engine.hpp"

#include <optional>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/wavelet/filters.hpp"

namespace qpsa::lomb {

void fft_engine::estimate(std::span<const real>, std::span<const real>,
                          const estimate_grid&, wfft::exec_stats*,
                          util::arena&, dsp::sampled_spectrum&) const {
    QPSA_EXPECTS(whole_window());  // mesh-FFT engines have no estimator path
}

void fft_engine::estimate_batched(std::span<estimate_item> items,
                                  util::arena& scratch) const {
    for (estimate_item& it : items) {
        std::optional<counting::count_scope> scope;
        if (it.ops != nullptr) scope.emplace(*it.ops);
        try {
            estimate(it.t, it.x, it.grid, it.stats, scratch, *it.out, it.ctx);
            it.ok = true;
        } catch (const contract_error&) {
            it.ok = false;
        }
    }
}

dsp::sampled_spectrum fft_engine::estimate(std::span<const real> t,
                                           std::span<const real> x,
                                           const estimate_grid& grid,
                                           wfft::exec_stats* stats) const {
    util::arena scratch;
    dsp::sampled_spectrum out;
    estimate(t, x, grid, stats, scratch, out);
    return out;
}

void split_radix_engine::forward(std::span<const cplx> in, std::span<cplx> out,
                                 wfft::exec_stats* stats) const {
    if (stats != nullptr) {
        counting::count_scope scope(stats->ops);
        fft_.forward(in, out);
    } else {
        fft_.forward(in, out);
    }
}

std::size_t split_radix_engine::batch_width() const noexcept {
    return simd::kernels().lanes;
}

void split_radix_engine::forward_batched(std::span<const batch_item> items,
                                         util::arena& scratch) const {
    // One lane-batched walk for all items (uncounted), then the memoized
    // per-transform tally attributed per item -- both into the item's own
    // stats sink and into whatever scopes are active at the call, exactly
    // as a sequence of scalar forwards would have counted.
    thread_local std::vector<const cplx*> ins;
    thread_local std::vector<cplx*> outs;
    ins.clear();
    outs.clear();
    for (const batch_item& it : items) {
        QPSA_EXPECTS(it.in.size() == fft_.size());
        QPSA_EXPECTS(it.out.size() == fft_.size());
        ins.push_back(it.in.data());
        outs.push_back(it.out.data());
    }
    fft_.forward_batched(ins, outs, scratch);
    for (const batch_item& it : items) {
        if (it.stats != nullptr) {
            counting::count_scope scope(it.stats->ops);
            counting::add_to_active(fft_.op_tally());
        } else {
            counting::add_to_active(fft_.op_tally());
        }
    }
}

std::string wavelet_engine::name() const {
    const auto& p = fft_.get_plan();
    std::string n = "wavelet-fft(";
    n += wavelet::basis_name(p.basis);
    switch (p.prune.mode) {
        case wfft::prune_mode::none:
            n += ",exact";
            break;
        case wfft::prune_mode::fixed:
            n += ",static";
            break;
        case wfft::prune_mode::dynamic:
            n += ",dynamic";
            break;
    }
    if (p.prune.band_drop_levels > 0) n += ",band-drop";
    if (p.prune.twiddle_fraction > 0.0) {
        // Appended piecewise: GCC 12's -Wrestrict false-fires (PR105329)
        // on the char* + string&& operator+ chain under -O3.
        n += ",";
        n += std::to_string(static_cast<int>(p.prune.twiddle_fraction * 100.0));
        n += "%";
    }
    n += ")";
    return n;
}

void wavelet_engine::forward(std::span<const cplx> in, std::span<cplx> out,
                             wfft::exec_stats* stats) const {
    fft_.forward(in, out, stats);
}

void wavelet_engine::forward(std::span<const cplx> in, std::span<cplx> out,
                             wfft::exec_stats* stats,
                             util::arena& scratch) const {
    fft_.forward(in, out, stats, scratch);
}

std::size_t wavelet_engine::batch_width() const noexcept {
    // Lane batching reaches the wavelet FFT through its half-size
    // split-radix sub-transforms (single_level); recursive trees stay
    // width-1.
    return fft_.lane_batchable() ? simd::kernels().lanes : 1;
}

void wavelet_engine::forward_batched(std::span<const batch_item> items,
                                     util::arena& scratch) const {
    thread_local std::vector<wfft::wavelet_fft::batch_io> ios;
    ios.clear();
    for (const batch_item& it : items) {
        QPSA_EXPECTS(it.in.size() == fft_.size());
        QPSA_EXPECTS(it.out.size() == fft_.size());
        ios.push_back({it.in.data(), it.out.data(), it.stats});
    }
    fft_.forward_batched(ios, scratch);
}

std::unique_ptr<fft_engine> make_split_radix_engine(std::size_t n) {
    return std::make_unique<split_radix_engine>(n);
}

std::unique_ptr<fft_engine> make_wavelet_engine(wfft::plan p) {
    return std::make_unique<wavelet_engine>(std::move(p));
}

}  // namespace qpsa::lomb
