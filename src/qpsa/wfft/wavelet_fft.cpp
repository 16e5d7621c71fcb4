#include "qpsa/wfft/wavelet_fft.hpp"

#include <cmath>
#include <cstdint>
#include <optional>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/wavelet/dwt.hpp"
#include "qpsa/wavelet/lifting.hpp"

namespace qpsa::wfft {

namespace {

constexpr real k_structural_eps = 1e-14;

/// True when multiplying by f is a free rotation (|f| = 1 and f is one of
/// +/-1, +/-i up to rounding): no real multiplications are needed.
bool is_free_rotation(cplx f) {
    const real re = std::abs(f.real());
    const real im = std::abs(f.imag());
    const bool axis_re = std::abs(re - 1.0) < 1e-12 && im < 1e-12;
    const bool axis_im = std::abs(im - 1.0) < 1e-12 && re < 1e-12;
    return axis_re || axis_im;
}

// Term classes, two bits per term (see wavelet_fft.hpp).
constexpr unsigned term_structural = 0;
constexpr unsigned term_pruned = 1;
constexpr unsigned term_free = 2;
constexpr unsigned term_generic = 3;
constexpr unsigned shift_a = 0;
constexpr unsigned shift_b = 2;
constexpr unsigned shift_c = 4;
constexpr unsigned shift_d = 6;
/// Keeps the a and c terms of a bin byte (a dropped highpass band).
constexpr std::uint8_t k_ac_terms = 0x33;

unsigned term_of(std::uint8_t cls, unsigned shift) { return (cls >> shift) & 3u; }

/// f * v as the textbook product (f.re*v.re - f.im*v.im,
/// f.re*v.im + f.im*v.re), the order the split-radix walks use.  For finite
/// values this is std::complex's operator* bit for bit; it omits only
/// that operator's inf/NaN recovery.
cplx cmul(cplx f, cplx v) {
    return {f.real() * v.real() - f.imag() * v.imag(),
            f.real() * v.imag() + f.imag() * v.real()};
}

/// f * v; a free rotation costs no multiplications (callers count the
/// complex multiply of the non-free case).
cplx apply_factor(cplx f, cplx v, bool free) {
    if (free) {
        // +/-1 or +/-i: sign flips and component swaps only.
        if (std::abs(f.real()) > 0.5) return f.real() > 0.0 ? v : -v;
        return f.imag() > 0.0 ? cplx{-v.imag(), v.real()} : cplx{v.imag(), -v.real()};
    }
    return cmul(f, v);
}

/// One combine output from its two terms (an unused term's value is
/// (0, 0)): the sum when both are used, else the used one, else (0, 0).
cplx sum_terms(bool u1, cplx t1, bool u2, cplx t2) {
    return u1 && u2 ? t1 + t2 : (u1 ? t1 : t2);
}

/// One half of the combine over the bins [b, e) of one class byte: out =
/// the used terms of f1 * v1 + f2 * v2, given the terms' classes c1, c2
/// (v2 is read only when c2 is used).  Generic/zero pairs -- every bin of
/// an exact plan but the rotations, a dropped band's a/c halves, a pruned
/// plan's bins -- run as branch-free loops over contiguous bins, which
/// the compiler vectorizes; a pair with a free rotation decodes per bin.
void combine_run(unsigned c1, const cplx* f1, const cplx* v1, unsigned c2,
                 const cplx* f2, const cplx* v2, cplx* out, std::size_t b,
                 std::size_t e) {
    const bool u1 = c1 >= term_free;
    const bool u2 = c2 >= term_free;
    if (c1 == term_generic && c2 == term_generic) {
        for (std::size_t m = b; m < e; ++m)
            out[m] = cmul(f1[m], v1[m]) + cmul(f2[m], v2[m]);
    } else if (c1 == term_generic && !u2) {
        for (std::size_t m = b; m < e; ++m) out[m] = cmul(f1[m], v1[m]);
    } else if (!u1 && c2 == term_generic) {
        for (std::size_t m = b; m < e; ++m) out[m] = cmul(f2[m], v2[m]);
    } else {
        for (std::size_t m = b; m < e; ++m)
            out[m] = sum_terms(
                u1, u1 ? apply_factor(f1[m], v1[m], c1 == term_free) : cplx{},
                u2, u2 ? apply_factor(f2[m], v2[m], c2 == term_free) : cplx{});
    }
}

}  // namespace

void leaf_dft(std::span<const cplx> in, std::span<cplx> out) {
    const std::size_t n = in.size();
    QPSA_EXPECTS(out.size() == n);
    if (n == 1) {
        out[0] = in[0];
        return;
    }
    if (n == 2) {
        out[0] = in[0] + in[1];
        out[1] = in[0] - in[1];
        counting::count_cadd(2);
        return;
    }
    if (n == 4) {
        const cplx s02 = in[0] + in[2];
        const cplx d02 = in[0] - in[2];
        const cplx s13 = in[1] + in[3];
        const cplx d13 = in[1] - in[3];
        out[0] = s02 + s13;
        out[2] = s02 - s13;
        // -i * d13 and +i * d13 are free rotations.
        out[1] = d02 + cplx{d13.imag(), -d13.real()};
        out[3] = d02 - cplx{d13.imag(), -d13.real()};
        counting::count_cadd(8);
        return;
    }
    // General fallback (only used if leaf_size > 4): O(n^2) DFT, counted.
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t j = 0; j < n; ++j) {
            const real ang =
                -two_pi * static_cast<real>(k * j % n) / static_cast<real>(n);
            acc += in[j] * cplx{std::cos(ang), std::sin(ang)};
            counting::count_cmul();
            counting::count_cadd();
        }
        out[k] = acc;
    }
}

wavelet_fft::wavelet_fft(plan p) : plan_(std::move(p)) {
    plan_.validate();
    tables_ = shared_twiddle_tables(plan_.basis, plan_.n, plan_.fold_haar_scale);

    // Static factor-magnitude threshold: the paper's design-time "sets".
    const bool highpass_kept = plan_.prune.band_drop_levels == 0;
    double fraction = 0.0;
    if (plan_.prune.mode == prune_mode::fixed)
        fraction = plan_.prune.twiddle_fraction;
    else if (plan_.prune.mode == prune_mode::dynamic)
        fraction = plan_.prune.dynamic_factor_fraction;
    const std::vector<real> mags = factor_magnitudes(*tables_, highpass_kept);
    static_threshold_ = magnitude_threshold(mags, fraction);

    // Effective factors, magnitudes and the per-bin term-class byte.
    term_class_.assign(tables_->a.size(), 0);
    auto build_effective = [&](const std::vector<cplx>& src, std::vector<cplx>& dst,
                               std::vector<real>& mag, unsigned shift) {
        dst = src;
        mag.resize(src.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            mag[i] = std::abs(src[i]);
            unsigned cls = term_generic;
            if (mag[i] <= std::max(static_threshold_, k_structural_eps)) {
                dst[i] = cplx{0.0, 0.0};
                cls = mag[i] <= k_structural_eps ? term_structural : term_pruned;
            } else if (is_free_rotation(src[i])) {
                cls = term_free;
            }
            term_class_[i] |= static_cast<std::uint8_t>(cls << shift);
        }
    };
    build_effective(tables_->a, eff_a_, mag_a_, shift_a);
    build_effective(tables_->b, eff_b_, mag_b_, shift_b);
    build_effective(tables_->c, eff_c_, mag_c_, shift_c);
    build_effective(tables_->d, eff_d_, mag_d_, shift_d);

    const std::size_t half = plan_.n / 2;
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_ = std::make_unique<dsp::fft_split_radix>(half);
    } else if (half > plan_.leaf_size) {
        plan child = plan_;
        child.n = half;
        // Children are exact except for a deeper band drop propagating
        // down the approximation chain (paper uses depth 1, so children
        // are exact in the default configuration).
        child.prune = prune_config::exact();
        if (plan_.prune.band_drop_levels > 1) {
            child.prune.mode = plan_.prune.mode;
            child.prune.band_drop_levels = plan_.prune.band_drop_levels - 1;
        }
        sub_a_ = std::make_unique<wavelet_fft>(child);
        plan child_d = child;
        child_d.prune = prune_config::exact();
        sub_d_ = std::make_unique<wavelet_fft>(child_d);
    }

    // A single-level tree without dynamic pruning is input-independent
    // (static band drop, factor-table term selection, a split-radix
    // sub-FFT of fixed tally), whatever its basis: one counted dry run
    // gives every forward's stats.  Counts (and the pruning statistics)
    // depend only on the plan, never on the data.
    static_tally_ = plan_.tree == tree_mode::single_level &&
                    plan_.prune.mode != prune_mode::dynamic;
    if (static_tally_) {
        std::vector<cplx> buf(2 * plan_.n);
        counting::pause_scope pause;
        forward(std::span<const cplx>(buf.data(), plan_.n),
                std::span<cplx>(buf.data() + plan_.n, plan_.n), &probe_stats_);
    }
}

void wavelet_fft::attribute_probe(exec_stats& st) const {
    counting::add_to_active(probe_stats_.ops);
    st += probe_stats_;
}

void wavelet_fft::dwt_stage(std::span<const cplx> x, std::span<cplx> a,
                            std::span<cplx> d, util::arena& scratch) const {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    const bool real_in = plan_.assume_real_input;

    if (tables_->folded) {
        // Unnormalized Haar butterflies (the 1/sqrt(2) lives in the
        // tables); real input keeps exact 0.0 imaginaries.
        if (real_in) {
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
                d[k] = cplx{x[2 * k].real() - x[2 * k + 1].real(), 0.0};
            }
            counting::count_adds(2 * half);
        } else {
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = x[2 * k] + x[2 * k + 1];
                d[k] = x[2 * k] - x[2 * k + 1];
            }
            counting::count_cadd(2 * half);
        }
        return;
    }

    if (plan_.basis == wavelet::basis::db2 && plan_.use_db2_lifting && n >= 4) {
        // Lifting factorization: 5 muls + 4 adds per output pair (per real
        // lane), re-indexed to the convolution convention.
        util::arena::frame frame(scratch);
        std::span<real> lane = scratch.alloc<real>(n);
        std::span<real> la = scratch.alloc<real>(half);
        std::span<real> ld = scratch.alloc<real>(half);
        for (std::size_t i = 0; i < n; ++i) lane[i] = x[i].real();
        wavelet::lifting_db2_analysis_conv(lane, la, ld);
        if (real_in) {
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = cplx{la[k], 0.0};
                d[k] = cplx{ld[k], 0.0};
            }
        } else {
            std::span<real> lai = scratch.alloc<real>(half);
            std::span<real> ldi = scratch.alloc<real>(half);
            for (std::size_t i = 0; i < n; ++i) lane[i] = x[i].imag();
            wavelet::lifting_db2_analysis_conv(lane, lai, ldi);
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = cplx{la[k], lai[k]};
                d[k] = cplx{ld[k], ldi[k]};
            }
        }
        return;
    }

    if (real_in) {
        const auto& fb = wavelet::filters(plan_.basis);
        const std::size_t len = fb.length();
        for (std::size_t k = 0; k < half; ++k) {
            real sa = 0.0;
            real sd = 0.0;
            for (std::size_t t = 0; t < len; ++t) {
                const real v = x[(2 * k + t) % n].real();
                sa += v * fb.lowpass[t];
                sd += v * fb.highpass[t];
            }
            a[k] = cplx{sa, 0.0};
            d[k] = cplx{sd, 0.0};
        }
        counting::count_muls(n * len);
        counting::count_adds(n * (len - 1));
        return;
    }
    wavelet::dwt_level(x, plan_.basis, a, d);
}

void wavelet_fft::dwt_stage_lowpass(std::span<const cplx> x,
                                    std::span<cplx> a) const {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    const bool real_in = plan_.assume_real_input;

    if (tables_->folded) {
        if (real_in) {
            for (std::size_t k = 0; k < half; ++k)
                a[k] = cplx{x[2 * k].real() + x[2 * k + 1].real(), 0.0};
            counting::count_adds(half);
        } else {
            for (std::size_t k = 0; k < half; ++k) a[k] = x[2 * k] + x[2 * k + 1];
            counting::count_cadd(half);
        }
        return;
    }
    // Lowpass-only direct convolution beats lifting here: lifting must
    // materialize the detail lane to finish its update step.
    const auto& fb = wavelet::filters(plan_.basis);
    const std::size_t len = fb.length();
    if (real_in) {
        for (std::size_t k = 0; k < half; ++k) {
            real acc = 0.0;
            for (std::size_t t = 0; t < len; ++t)
                acc += x[(2 * k + t) % n].real() * fb.lowpass[t];
            a[k] = cplx{acc, 0.0};
        }
        counting::count_muls(half * len);
        counting::count_adds(half * (len - 1));
        return;
    }
    for (std::size_t k = 0; k < half; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t t = 0; t < len; ++t)
            acc += x[(2 * k + t) % n] * fb.lowpass[t];
        a[k] = acc;
    }
    counting::count_muls(n * len);
    counting::count_adds(n * (len - 1));
}

void wavelet_fft::sub_transform_a(std::span<const cplx> in, std::span<cplx> out,
                                  exec_stats& stats, util::arena& scratch) const {
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_->forward(in, out);
    } else if (sub_a_) {
        sub_a_->forward_impl(in, out, stats, scratch);
    } else {
        leaf_dft(in, out);
    }
}

void wavelet_fft::sub_transform_d(std::span<const cplx> in, std::span<cplx> out,
                                  exec_stats& stats, util::arena& scratch) const {
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_->forward(in, out);
    } else if (sub_d_) {
        sub_d_->forward_impl(in, out, stats, scratch);
    } else {
        leaf_dft(in, out);
    }
}

void wavelet_fft::combine(std::span<const cplx> a_fft, const cplx* d_fft,
                          std::span<cplx> out, exec_stats& stats) const {
    const std::size_t half = plan_.n / 2;
    const bool dynamic =
        plan_.prune.mode == prune_mode::dynamic && plan_.prune.data_threshold > 0.0;
    const real data_thr = plan_.prune.data_threshold;
    counting::op_counts ops;  // the combine's tally, attributed once

    for (std::size_t m = 0; m < half; ++m) {
        // Run-time significance proxy: L1 magnitude of the sub-spectrum
        // sample, shared by the two output terms that consume it.
        real l1a = 0.0;
        real l1d = 0.0;
        if (dynamic) {
            l1a = l1_mag(a_fft[m]);
            ops.adds += 1;
            if (d_fft != nullptr) {
                l1d = l1_mag(d_fft[m]);
                ops.adds += 1;
            }
        }

        // A combine term contributes |factor| * |data|; the dynamic mode
        // skips terms whose product falls below the calibrated threshold
        // ("data and twiddle factors below a set of thresholds are
        // eliminated on the fly") at the cost of one multiply and one
        // comparison per candidate term.
        const std::uint8_t cls = term_class_[m];
        auto term = [&](unsigned shift, const std::vector<cplx>& eff,
                        const std::vector<real>& mag, cplx v, real l1,
                        bool* used) -> cplx {
            ++stats.terms_total;
            const unsigned c = term_of(cls, shift);
            if (c < term_free) {
                if (c == term_structural)
                    ++stats.terms_structural_zero;
                else
                    ++stats.terms_pruned_factor;
                *used = false;
                return {};
            }
            if (dynamic) {
                ops.muls += 1;
                ops.cmps += 1;
                if (mag[m] * l1 < data_thr) {
                    ++stats.terms_pruned_data;
                    *used = false;
                    return {};
                }
            }
            *used = true;
            if (c == term_generic) ops += {.adds = 2, .muls = 4};  // complex multiply
            return apply_factor(eff[m], v, c == term_free);
        };

        bool ua = false;
        bool ub = false;
        const cplx ta = term(shift_a, eff_a_, mag_a_, a_fft[m], l1a, &ua);
        cplx tb{0.0, 0.0};
        if (d_fft != nullptr)
            tb = term(shift_b, eff_b_, mag_b_, d_fft[m], l1d, &ub);
        out[m] = sum_terms(ua, ta, ub, tb);
        if (ua && ub) ops.adds += 2;

        bool uc = false;
        bool ud = false;
        const cplx tc = term(shift_c, eff_c_, mag_c_, a_fft[m], l1a, &uc);
        cplx td{0.0, 0.0};
        if (d_fft != nullptr)
            td = term(shift_d, eff_d_, mag_d_, d_fft[m], l1d, &ud);
        out[m + half] = sum_terms(uc, tc, ud, td);
        if (uc && ud) ops.adds += 2;
    }
    counting::add_to_active(ops);
}

bool wavelet_fft::split(std::span<const cplx> in, std::span<cplx> a,
                        std::span<cplx>& d, util::arena& scratch) const {
    const std::size_t half = plan_.n / 2;
    const bool drop_cfg = plan_.prune.band_drop_levels >= 1;
    const bool dynamic_band =
        plan_.prune.mode == prune_mode::dynamic && plan_.prune.dynamic_band_decision;

    if (drop_cfg && !dynamic_band) {
        // Static drop: the highpass half-band is never computed.
        dwt_stage_lowpass(in, a);
        return true;
    }
    d = scratch.alloc<cplx>(half);
    dwt_stage(in, a, d, scratch);
    if (!drop_cfg) return false;
    // Run-time decision from the live mean L1 |d| (paper V.A: "based on
    // the specific samples we could also apply such a threshold at
    // run-time").  Calibration statistics use the normalized DWT, so the
    // folded (unnormalized) Haar stage compares against a sqrt(2)-scaled
    // threshold.
    const real thr = plan_.prune.band_threshold * (tables_->folded ? sqrt2 : 1.0);
    real acc = 0.0;
    for (const cplx& v : d) acc += l1_mag(v);
    counting::count_adds(2 * half - 1);
    counting::count_divs(1);
    counting::count_cmps(1);
    return (acc / static_cast<real>(half)) < thr;
}

void wavelet_fft::forward_impl(std::span<const cplx> in, std::span<cplx> out,
                               exec_stats& stats, util::arena& scratch) const {
    const std::size_t n = plan_.n;
    QPSA_EXPECTS(in.size() == n);
    QPSA_EXPECTS(out.size() == n);
    const std::size_t half = n / 2;

    util::arena::frame frame(scratch);
    std::span<cplx> a = scratch.alloc<cplx>(half);
    std::span<cplx> a_fft = scratch.alloc<cplx>(half);
    std::span<cplx> d;
    const bool drop = split(in, a, d, scratch);
    stats.band_dropped = drop || stats.band_dropped;

    sub_transform_a(a, a_fft, stats, scratch);

    if (drop) {
        combine(a_fft, nullptr, out, stats);
        return;
    }
    std::span<cplx> d_fft = scratch.alloc<cplx>(half);
    sub_transform_d(d, d_fft, stats, scratch);
    combine(a_fft, d_fft.data(), out, stats);
}

void wavelet_fft::forward(std::span<const cplx> in, std::span<cplx> out,
                          exec_stats* stats) const {
    util::arena scratch;
    forward(in, out, stats, scratch);
}

void wavelet_fft::forward_batched(std::span<const batch_io> items,
                                  util::arena& scratch) const {
    // Recursive trees run the sequential transform per item -- identical
    // by definition -- and so does a lone item that has no memoized tally
    // to attribute.
    if (!lane_batchable() || (items.size() < 2 && !static_tally_)) {
        for (const batch_io& it : items)
            forward(std::span<const cplx>(it.in, plan_.n),
                    std::span<cplx>(it.out, plan_.n), it.stats, scratch);
        return;
    }

    const std::size_t n = plan_.n;
    const std::size_t half = n / 2;

    // Top-level real-input contract, exactly as forward() applies it.
    if (plan_.assume_real_input)
        for (const batch_io& it : items)
            for (std::size_t e = 0; e < n; ++e)
                QPSA_EXPECTS(std::abs(it.in[e].imag()) < 1e-12);

    struct item_state {
        std::span<cplx> a, d, a_fft, d_fft;
        exec_stats* st = nullptr;
        bool drop = false;
    };
    // thread_local so steady-state batched drains stay allocation-free.
    thread_local std::vector<item_state> states;
    thread_local std::vector<exec_stats> locals;
    thread_local std::vector<const cplx*> sub_ins;
    thread_local std::vector<cplx*> sub_outs;
    states.clear();
    states.resize(items.size());
    locals.clear();
    locals.resize(items.size());  // sinks for items without a stats target

    util::arena::frame frame(scratch);

    // Stage 1, per item: DWT split + band decision.  A static plan runs it
    // uncounted (the probe stats are attributed in stage 3); a dynamic
    // plan counts it live under the item's scope, so per-item counts and
    // the decision itself are untouched by batching.
    for (std::size_t i = 0; i < items.size(); ++i) {
        item_state& s = states[i];
        s.st = items[i].stats != nullptr ? items[i].stats : &locals[i];
        std::span<const cplx> in(items[i].in, n);
        s.a = scratch.alloc<cplx>(half);
        s.a_fft = scratch.alloc<cplx>(half);
        if (static_tally_) {
            counting::pause_scope pause;
            s.drop = split(in, s.a, s.d, scratch);
        } else {
            counting::count_scope scope(s.st->ops);
            s.drop = split(in, s.a, s.d, scratch);
        }
        s.st->band_dropped = s.drop || s.st->band_dropped;
        if (!s.drop) s.d_fft = scratch.alloc<cplx>(half);
    }

    // Stage 2: every surviving half-size sub-transform -- lowpass bands
    // first, then the kept highpass bands -- through one lane-batched
    // split-radix walk.  The walk is uncounted.
    sub_ins.clear();
    sub_outs.clear();
    for (item_state& s : states) {
        sub_ins.push_back(s.a.data());
        sub_outs.push_back(s.a_fft.data());
    }
    for (item_state& s : states)
        if (!s.drop) {
            sub_ins.push_back(s.d.data());
            sub_outs.push_back(s.d_fft.data());
        }
    sub_split_radix_->forward_batched(
        std::span<const cplx* const>(sub_ins.data(), sub_ins.size()),
        std::span<cplx* const>(sub_outs.data(), sub_outs.size()), scratch);

    // Stage 3, per item: the diagonal combine.  A static plan runs the
    // uncounted static combine and attributes the memoized probe stats; a dynamic plan attributes the memoized sub-FFT tallies
    // and runs the counted combine (data-dependent pruning and its
    // statistics).  Either way the item records exactly what forward()
    // records.
    for (std::size_t i = 0; i < items.size(); ++i) {
        item_state& s = states[i];
        const cplx* d_fft = s.drop ? nullptr : s.d_fft.data();
        if (static_tally_) {
            combine_static(s.a_fft.data(), d_fft, items[i].out);
            attribute_probe(*s.st);
            continue;
        }
        counting::count_scope scope(s.st->ops);
        counting::add_to_active(sub_split_radix_->op_tally());
        if (!s.drop) counting::add_to_active(sub_split_radix_->op_tally());
        combine(s.a_fft, d_fft, std::span<cplx>(items[i].out, n), *s.st);
    }
}

void wavelet_fft::combine_static(const cplx* a_fft, const cplx* d_fft,
                                 cplx* out) const {
    const std::size_t half = plan_.n / 2;
    // Term selection is static (the compiled class bytes; no dynamic mode
    // here): each run of bins sharing one byte takes one loop per output
    // half, whose per-element arithmetic is combine()'s term/sum structure
    // exactly.  A dropped band clears the b and d terms, so d_fft is
    // never read.
    const std::uint8_t keep = d_fft != nullptr ? 0xFF : k_ac_terms;
    for (std::size_t b = 0; b < half;) {
        std::size_t e = b + 1;
        while (e < half && term_class_[e] == term_class_[b]) ++e;
        const std::uint8_t cls = term_class_[b] & keep;
        combine_run(term_of(cls, shift_a), eff_a_.data(), a_fft,
                    term_of(cls, shift_b), eff_b_.data(), d_fft, out, b, e);
        combine_run(term_of(cls, shift_c), eff_c_.data(), a_fft,
                    term_of(cls, shift_d), eff_d_.data(), d_fft, out + half,
                    b, e);
        b = e;
    }
}

void wavelet_fft::forward(std::span<const cplx> in, std::span<cplx> out,
                          exec_stats* stats, util::arena& scratch) const {
    // The real-input contract is checked once at the top level only: child
    // transforms see structurally real data by construction, so re-checking
    // at every recursion level would be O(n log n) of pure overhead.
    if (plan_.assume_real_input) {
        for (const cplx& v : in) QPSA_EXPECTS(std::abs(v.imag()) < 1e-12);
    }
    exec_stats local;
    exec_stats& st = stats ? *stats : local;
    counting::count_scope scope(st.ops);
    forward_impl(in, out, st, scratch);
}

std::vector<cplx> wavelet_fft::forward_copy(std::span<const cplx> in,
                                            exec_stats* stats) const {
    std::vector<cplx> out(plan_.n);
    forward(in, out, stats);
    return out;
}

wavelet_fft::subband_spectra wavelet_fft::analyze(std::span<const cplx> in) const {
    QPSA_EXPECTS(in.size() == plan_.n);
    const std::size_t half = plan_.n / 2;
    subband_spectra s;
    std::vector<cplx> a(half);
    std::vector<cplx> d(half);
    // Exact analysis: normalized DWT regardless of folding, so statistics
    // are comparable across bases.
    wavelet::dwt_level(in, plan_.basis, a, d);
    std::optional<dsp::fft_split_radix> own;
    const dsp::fft_split_radix& sub =
        sub_split_radix_ != nullptr ? *sub_split_radix_ : own.emplace(half);
    s.a_fft = sub.forward_copy(a);
    s.d_fft = sub.forward_copy(d);
    real acc = 0.0;
    for (const cplx& v : d) acc += l1_mag(v);
    s.d_mean_l1 = acc / static_cast<real>(half);
    return s;
}

}  // namespace qpsa::wfft
