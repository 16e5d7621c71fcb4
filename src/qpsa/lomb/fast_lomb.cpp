#include "qpsa/lomb/fast_lomb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "qpsa/dsp/real_pair_fft.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/util/stats.hpp"

namespace qpsa::lomb {

std::size_t fast_lomb_mesh_size(std::size_t n_samples,
                                const fast_lomb_options& opt) {
    return opt.mesh_size != 0
               ? opt.mesh_size
               : 2 * next_pow2(static_cast<std::size_t>(
                         opt.ofac * opt.hifac *
                         static_cast<real>(n_samples) *
                         static_cast<real>(opt.macc)));
}

std::size_t fast_lomb_nout(std::size_t n_samples, const fast_lomb_options& opt) {
    const std::size_t mesh = fast_lomb_mesh_size(n_samples, opt);
    const std::size_t by_data =
        opt.nout_override != 0
            ? opt.nout_override
            : static_cast<std::size_t>(0.5 * opt.ofac * opt.hifac *
                                       static_cast<real>(n_samples));
    return std::min(by_data, mesh / 2 - 1);
}

namespace {

// Both entry points run one pipeline per window: phase A (prepare_window:
// moments, mesh fill, engine inputs), phase B (engine.forward_batched over
// the queued transforms, or the whole-window estimate) and phases C/D
// (finish_window: fft op attribution, Lomb combine).  The batched entry
// point only widens phase B to every window of the round, which is
// lane-exact by the kernel and estimate_batched contracts, so both execute
// the identical arithmetic.  Given a weight_transform, a staircase window
// fills and queues its data mesh only; phase C replays the weight
// forward's recorded exec_stats (into bd.fft_stats and the active scopes,
// as the live forward would have counted) and phase D reads the
// precomputed weight half of each bin.  The op tally thus still charges
// two transforms per window, the paper's cost model.

/// Window-level facts established by the contract checks + moment pass.
struct window_prep {
    real avg = 0.0;
    real var = 0.0;
    real t0 = 0.0;
    real span = 0.0;
    std::size_t mesh = 0;
    std::size_t nout = 0;
};

window_prep window_moments(std::span<const real> t, std::span<const real> x,
                           const fft_engine& engine,
                           const fast_lomb_options& opt, lomb_breakdown& bd) {
    QPSA_EXPECTS(t.size() == x.size());
    QPSA_EXPECTS(t.size() >= 2);
    QPSA_EXPECTS(opt.ofac >= 1.0);
    const std::size_t n = t.size();

    window_prep prep;
    {
        counting::count_scope scope(bd.moments);
        prep.avg = util::mean(x);
        prep.var = util::variance(x);
        counting::count_adds(3 * n);
        counting::count_muls(n);
        counting::count_divs(2);
    }
    QPSA_EXPECTS(prep.var > 0.0);

    prep.t0 = t.front();
    prep.span =
        opt.span_override > 0.0 ? opt.span_override : t.back() - prep.t0;
    QPSA_EXPECTS(prep.span > 0.0);

    prep.mesh = fast_lomb_mesh_size(n, opt);
    QPSA_EXPECTS(is_pow2(prep.mesh));
    QPSA_EXPECTS(engine.size() == prep.mesh);

    prep.nout = fast_lomb_nout(n, opt);
    QPSA_EXPECTS(prep.nout >= 1);
    return prep;
}

// ---- hop-aligned mesh fill (canonical position decomposition) -----------
//
// The scratch extirpolation anchors mesh positions on the window's first
// beat.  Hop alignment anchors on the global hop grid instead: with
// q = floor(t / hop), r = t - q * hop, fac = mesh / (span * ofac) and
// hc = hop * fac an integer number of mesh cells, beat t deposits at
//
//     x0 + (q - m) * hc      where  x0 = r * fac  in [0, hc)
//
// in window m.  x0 -- and therefore every Lagrange weight -- is a pure
// function of the beat itself, so the two windows containing a beat make
// bitwise-equal deposits at integer-shifted cells.  Centering is
// decomposed the same way: two meshes accumulate raw values (mx) and unit
// weights (m1) at the base angles, wk2 takes the doubled-angle unit
// weights, and the final wk1[c] = mx[c] - avg * m1[c] applies the window
// mean after every beat has deposited.

struct aligned_mesh_plan {
    bool aligned = false;  ///< canonical fill applies
    std::int64_t hc = 0;   ///< mesh cells per hop
};

aligned_mesh_plan plan_aligned_mesh(const fast_lomb_options& opt,
                                    const hop_ctx* ctx, std::size_t mesh) {
    aligned_mesh_plan p;
    if (ctx == nullptr || opt.mesh != mesh_mode::lagrange_extirpolation)
        return p;
    if (opt.span_override <= 0.0 || ctx->hop_seconds <= 0.0) return p;
    if (opt.macc != 1 && opt.macc != 4) return p;
    const real fac = static_cast<real>(mesh) / (opt.span_override * opt.ofac);
    const real hc = ctx->hop_seconds * fac;
    const auto ihc = static_cast<std::int64_t>(std::llround(hc));
    // The hop must be an integer number of mesh cells (and leave room for
    // new beats); otherwise the scratch path runs.
    if (ihc <= 0 || ihc >= static_cast<std::int64_t>(mesh)) return p;
    if (std::abs(hc - static_cast<real>(ihc)) > 1e-9) return p;
    p.aligned = true;
    p.hc = ihc;
    return p;
}

/// Hop-grid coordinates of one beat: the hop cell offset d = q - m within
/// the window, and the base positions x0 (in [0, hc)) / x2 = 2 x0 that are
/// pure functions of the beat time.
struct beat_pos {
    std::int64_t d = 0;
    real x0 = 0.0;
    real x2 = 0.0;
};

beat_pos aligned_beat_pos(real t, std::int64_t m, real hop, real fac) {
    auto q = static_cast<std::int64_t>(std::floor(t / hop));
    real r = t - static_cast<real>(q) * hop;
    // The division can land one cell off right at a hop boundary; the
    // guards re-derive (q, r) so the result is a pure function of t.
    if (r < 0.0) {
        --q;
        r = t - static_cast<real>(q) * hop;
    }
    if (r >= hop) {
        ++q;
        r = t - static_cast<real>(q) * hop;
    }
    beat_pos p;
    p.d = q - m;
    p.x0 = r * fac;
    p.x2 = 2.0 * p.x0;
    return p;
}

/// Deposit helper of the aligned fill: order-4 Lagrange weights evaluated
/// from the base position x alone (spread4's shared sub-products), then
/// deposited `shift` whole cells later -- so the deposit is bitwise
/// shift-invariant.  `mate` (when non-null) receives unit-weight deposits
/// at the same cells, sharing the one weight evaluation (the centering
/// decomposition).  `ops` accumulates the fixed per-beat tally, which the
/// caller attributes once per window.
void aligned_deposit(real y, std::span<real> mesh, std::span<real> mate,
                     real x, std::int64_t shift, int order,
                     counting::op_counts& ops) {
    const auto n = static_cast<std::ptrdiff_t>(mesh.size());
    const real xr = std::round(x);
    // The early-exit test sees the pre-shift position, so both windows
    // containing a beat take the same branch.
    if (order == 1 || std::abs(x - xr) < 1e-9) {
        const std::size_t idx = static_cast<std::size_t>(mod_floor(
            static_cast<std::ptrdiff_t>(xr) + static_cast<std::ptrdiff_t>(shift),
            n));
        mesh[idx] += y;
        ops.adds += 1;
        if (!mate.empty()) {
            mate[idx] += 1.0;
            ops.adds += 1;
        }
        return;
    }
    const auto i0 = static_cast<std::ptrdiff_t>(std::floor(x));
    const real u = x - static_cast<real>(i0);
    const real up1 = u + 1.0;
    const real um1 = u - 1.0;
    const real um2 = u - 2.0;
    const real m12 = um1 * um2;
    const real p01 = up1 * u;
    constexpr real sixth = 1.0 / 6.0;
    const real w0 = -(sixth * u) * m12;
    const real w1 = (0.5 * up1) * m12;
    const real w2 = -(0.5 * p01) * um2;
    const real w3 = (sixth * p01) * um1;
    const std::ptrdiff_t base =
        mod_floor(i0 + static_cast<std::ptrdiff_t>(shift), n);
    const auto wrap = [n](std::ptrdiff_t i) {
        if (i < 0) i += n;
        if (i >= n) i -= n;
        return static_cast<std::size_t>(i);
    };
    const std::size_t c0 = wrap(base - 1);
    const std::size_t c1 = static_cast<std::size_t>(base);
    const std::size_t c2 = wrap(base + 1);
    const std::size_t c3 = wrap(base + 2);
    mesh[c0] += y * w0;
    mesh[c1] += y * w1;
    mesh[c2] += y * w2;
    mesh[c3] += y * w3;
    ops.muls += 14;  // 10 weight products + 4 value scalings
    ops.adds += 7;   // 3 offsets + 4 accumulates
    if (!mate.empty()) {
        mate[c0] += w0;
        mate[c1] += w1;
        mate[c2] += w2;
        mate[c3] += w3;
        ops.adds += 4;
    }
}

/// Canonical hop-aligned fill: every beat deposits at its hop-grid
/// position, in beat-time order.
std::size_t fill_meshes_aligned(std::span<const real> t,
                                std::span<const real> x,
                                const window_prep& prep,
                                const fast_lomb_options& opt,
                                const aligned_mesh_plan& plan,
                                const hop_ctx& ctx, util::arena& mem,
                                lomb_breakdown& bd, std::span<real> wk1,
                                std::span<real> wk2) {
    const std::size_t n = t.size();
    const std::size_t mesh = prep.mesh;
    const auto meshi = static_cast<std::int64_t>(mesh);
    counting::count_scope scope(bd.extirpolation);

    const real fac = static_cast<real>(mesh) / (opt.span_override * opt.ofac);
    const real hop = ctx.hop_seconds;
    const std::int64_t m = ctx.window_index;

    // wk2 doubles as the m2 accumulator: unit weights at doubled angles
    // need no centering pass.
    std::span<real> mx = mem.alloc<real>(mesh);
    std::span<real> m1 = mem.alloc<real>(mesh);
    std::fill(mx.begin(), mx.end(), 0.0);
    std::fill(m1.begin(), m1.end(), 0.0);
    std::fill(wk2.begin(), wk2.end(), 0.0);

    counting::op_counts ops;  // this window's deposits, counted once
    for (std::size_t j = 0; j < n; ++j) {
        const beat_pos p = aligned_beat_pos(t[j], m, hop, fac);
        QPSA_EXPECTS(p.d >= 0 && p.d * plan.hc < meshi);
        ops.divs += 1;  // t / hop
        ops.muls += 3;  // q * hop, r * fac, 2 * x0
        ops.adds += 1;  // t - q * hop
        const std::int64_t s1 = (p.d * plan.hc) % meshi;
        const std::int64_t s2 = (p.d * 2 * plan.hc) % meshi;
        aligned_deposit(x[j], mx, m1, p.x0, s1, opt.macc, ops);
        aligned_deposit(1.0, wk2, {}, p.x2, s2, opt.macc, ops);
    }

    // Apply the window mean after every deposit.
    for (std::size_t c = 0; c < mesh; ++c) wk1[c] = mx[c] - prep.avg * m1[c];
    ops += {.adds = mesh, .muls = mesh};
    counting::add_to_active(ops);
    return n;
}

/// Data cells of a staircase mesh: mesh / ofac even cells; the remaining
/// (ofac-1)/ofac of the mesh stays zero (spectral oversampling).
std::size_t staircase_cells(std::size_t mesh, const fast_lomb_options& opt) {
    return static_cast<std::size_t>(static_cast<real>(mesh) / opt.ofac);
}

/// The staircase weight mesh: a unit weight at the doubled position of
/// each data cell (for the 2*w*t sums).  No window data enters it.
void staircase_weights(std::size_t n_data, std::span<real> wk2) {
    std::fill(wk2.begin(), wk2.end(), 0.0);
    for (std::size_t p = 0; p < n_data; ++p) wk2[(2 * p) % wk2.size()] += 1.0;
}

/// Sample-and-hold onto a staircase's data cells, into `out` (the data
/// mesh, or straight into its transform input as Out = cplx{v, 0}): cell
/// p holds the beat the per-cell scan reaches at p's time, centered once
/// per beat; the cells past the data stay zero.  Returns the cell count.
template <class Out>
std::size_t staircase_fill(std::span<const real> t, std::span<const real> x,
                           const window_prep& prep,
                           const fast_lomb_options& opt, std::span<Out> out) {
    const std::size_t n = t.size();
    const std::size_t n_data = staircase_cells(prep.mesh, opt);
    QPSA_EXPECTS(n_data >= 8 && n_data <= prep.mesh);
    const real delta = prep.span / static_cast<real>(n_data);
    std::size_t j = 0;
    real v = x[0] - prep.avg;
    for (std::size_t p = 0; p < n_data; ++p) {
        const real tp = prep.t0 + static_cast<real>(p) * delta;
        if (j + 1 < n && t[j + 1] <= tp) {
            do ++j;
            while (j + 1 < n && t[j + 1] <= tp);
            v = x[j] - prep.avg;
        }
        out[p] = Out{v};
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(n_data), out.end(),
              Out{});
    // Per cell: hold-advance compare, centering add, weight add.
    counting::count_cmps(n_data);
    counting::count_adds(2 * n_data);
    return n_data;
}

/// Redistribution onto the oversampled periodic mesh.  The mesh covers
/// span * ofac seconds so that df = 1 / (span * ofac).  Returns n_eff, the
/// sample count entering the Lomb denominators.
std::size_t fill_meshes(std::span<const real> t, std::span<const real> x,
                        const window_prep& prep, const fast_lomb_options& opt,
                        const hop_ctx* ctx, util::arena& mem,
                        lomb_breakdown& bd, std::span<real> wk1,
                        std::span<real> wk2) {
    if (opt.hop_aligned) {
        const aligned_mesh_plan plan = plan_aligned_mesh(opt, ctx, prep.mesh);
        if (plan.aligned)
            return fill_meshes_aligned(t, x, prep, opt, plan, *ctx, mem, bd,
                                       wk1, wk2);
    }
    const std::size_t n = t.size();
    std::size_t n_eff = n;
    counting::count_scope scope(bd.extirpolation);
    if (opt.mesh == mesh_mode::staircase_hold) {
        n_eff = staircase_fill(t, x, prep, opt, wk1);
        staircase_weights(n_eff, wk2);
    } else {
        std::span<real> centered = mem.alloc<real>(n);
        for (std::size_t j = 0; j < n; ++j) centered[j] = x[j] - prep.avg;
        counting::count_adds(n);
        extirpolate(t, centered, wk1, opt.macc, prep.t0, prep.span * opt.ofac);
        // Unit weights at doubled angle positions (for the 2*w*t sums).
        std::span<real> t2 = mem.alloc<real>(n);
        std::span<real> ones = mem.alloc<real>(n);
        std::fill(ones.begin(), ones.end(), 1.0);
        for (std::size_t j = 0; j < n; ++j) t2[j] = 2.0 * (t[j] - prep.t0);
        counting::count_adds(n);
        counting::count_muls(n);
        extirpolate(t2, ones, wk2, opt.macc, 0.0, prep.span * opt.ofac);
    }
    return n_eff;
}

/// Per-window state carried from phase A (prepare_window) across the
/// engine forwards of phase B to phases C/D (finish_window).
struct window_state {
    window_prep prep;
    std::size_t n_eff = 0;
    /// The window's mesh transforms: the packed pair (packed_single), the
    /// two meshes (two_transforms), or the data mesh alone when `weights`
    /// carries the weight mesh's.  None for whole-window engines, whose
    /// phase B is `estimate` instead.
    std::array<fft_engine::batch_item, 2> items{};
    std::size_t n_items = 0;
    const weight_transform* weights = nullptr;
    fft_engine::estimate_item estimate;
    /// bd.fft_stats.ops before phase B.  The engine is the sole counter
    /// into that sink, so the delta after phase B is the window's bd.fft
    /// share however the forwards were grouped.
    counting::op_counts fft_pre;

    std::span<const fft_engine::batch_item> transforms() const noexcept {
        return {items.data(), n_items};
    }
};

/// out[i] = (a[i], 0): a real mesh as complex FFT input.
void widen_real(std::span<const real> a, std::span<cplx> out) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = cplx{a[i], 0.0};
}

/// Phase A of one window: contract checks and moments, then either the
/// whole-window estimate's arguments or the mesh fill and the engine
/// inputs, queued in the returned state for phase B.
window_state prepare_window(const window_job& job, const fft_engine& engine,
                            const fast_lomb_options& opt,
                            const weight_transform* weights,
                            util::arena& mem) {
    lomb_breakdown& bd = *job.bd;
    window_state st;
    st.prep = window_moments(job.t, job.x, engine, opt, bd);
    const std::size_t mesh = st.prep.mesh;

    // Whole-window estimators (AR, direct Lomb, resampled, Welch) consume
    // the raw window and produce the normalized periodogram on the same
    // grid directly; the mesh pipeline below is exclusive to
    // forward()-style FFT engines.
    if (engine.whole_window()) {
        st.estimate = {job.t,           job.x,
                       {1.0 / (st.prep.span * opt.ofac), st.prep.nout},
                       &bd.fft_stats,   &bd.fft,
                       &job.out->spectrum, job.ctx};
        return st;
    }

    if (weights != nullptr) {
        // The staircase's data mesh goes straight into the one transform
        // input; the weight mesh's transform is the memo's.
        QPSA_EXPECTS(opt.mesh == mesh_mode::staircase_hold &&
                     opt.packing == fft_packing::two_transforms);
        QPSA_EXPECTS(weights->spectrum.size() == mesh);
        std::span<cplx> z1fft = mem.alloc<cplx>(mesh);
        std::span<cplx> za = mem.alloc<cplx>(mesh);
        {
            counting::count_scope scope(bd.extirpolation);
            st.n_eff = staircase_fill(job.t, job.x, st.prep, opt, za);
        }
        QPSA_EXPECTS(st.n_eff == weights->n_data);
        st.items[0] = {za, z1fft, &bd.fft_stats};
        st.n_items = 1;
        st.weights = weights;
        st.fft_pre = bd.fft_stats.ops;
        return st;
    }
    std::span<real> wk1 = mem.alloc<real>(mesh);
    std::span<real> wk2 = mem.alloc<real>(mesh);
    st.n_eff = fill_meshes(job.t, job.x, st.prep, opt, job.ctx, mem, bd,
                           wk1, wk2);

    counting::count_scope scope(bd.fft);
    if (opt.packing == fft_packing::packed_single) {
        std::span<cplx> zfft = mem.alloc<cplx>(mesh);
        std::span<cplx> z = mem.alloc<cplx>(mesh);
        dsp::pack_real_pair(wk1, wk2, z);
        st.items[0] = {z, zfft, &bd.fft_stats};
        st.n_items = 1;
    } else {
        std::span<cplx> z1fft = mem.alloc<cplx>(mesh);
        std::span<cplx> za = mem.alloc<cplx>(mesh);
        widen_real(wk1, za);
        std::span<cplx> z2fft = mem.alloc<cplx>(mesh);
        std::span<cplx> zb = mem.alloc<cplx>(mesh);
        widen_real(wk2, zb);
        st.items[0] = {za, z1fft, &bd.fft_stats};
        st.items[1] = {zb, z2fft, &bd.fft_stats};
        st.n_items = 2;
    }
    st.fft_pre = bd.fft_stats.ops;
    return st;
}

/// The weight half of combine bin k from the weight sum s2 (bin k of the
/// weight mesh's transform) and n_eff.
weight_bin weight_terms(cplx s2, real nf) {
    // Our FFT kernel uses exp(-i...): sum cos = Re, sum sin = -Im.
    const real re2 = s2.real();
    const real im2 = -s2.imag();
    real hypo = std::sqrt(re2 * re2 + im2 * im2);
    if (hypo < 1e-12) hypo = 1e-12;
    const real hc2wt = 0.5 * re2 / hypo;
    const real hs2wt = 0.5 * im2 / hypo;
    weight_bin w;
    w.cwt = std::sqrt(0.5 + hc2wt);
    w.swt = std::copysign(std::sqrt(0.5 - hc2wt), hs2wt);
    w.den = std::max(0.5 * nf + hc2wt * re2 + hs2wt * im2, 1e-9);
    w.den2 = std::max(nf - w.den, 1e-9);
    return w;
}

/// The Lomb calculator: combine the transform bins into the normalized
/// periodogram.  A packed_single window unpacks both sums from its one
/// spectrum; a two_transforms window reads them from its pair, or its
/// weight half from the weight transform.
void lomb_combine(const window_state& st, const fast_lomb_options& opt,
                  lomb_result& res, lomb_breakdown& bd) {
    const window_prep& prep = st.prep;
    const bool packed = opt.packing == fft_packing::packed_single;
    const std::span<const cplx> z1 = st.items[0].out;
    const std::span<const cplx> z2 = st.items[1].out;
    res.spectrum.freq_hz.resize(prep.nout);
    res.spectrum.power.resize(prep.nout);
    const real df = 1.0 / (prep.span * opt.ofac);
    const auto nf = static_cast<real>(st.n_eff);
    counting::count_scope scope(bd.combine);
    for (std::size_t k = 1; k <= prep.nout; ++k) {
        cplx s1;
        weight_bin w;
        if (packed) {
            const dsp::real_pair_bin bin = dsp::unpack_bin(z1, k);
            s1 = bin.a;
            w = weight_terms(bin.b, nf);
        } else {
            s1 = z1[k];
            w = st.weights != nullptr ? st.weights->bins[k - 1]
                                      : weight_terms(z2[k], nf);
        }
        const real re1 = s1.real();
        const real im1 = -s1.imag();
        const real cterm =
            (w.cwt * re1 + w.swt * im1) * (w.cwt * re1 + w.swt * im1) / w.den;
        const real sterm =
            (w.cwt * im1 - w.swt * re1) * (w.cwt * im1 - w.swt * re1) / w.den2;

        res.spectrum.freq_hz[k - 1] = static_cast<real>(k) * df;
        res.spectrum.power[k - 1] = (cterm + sterm) / (2.0 * prep.var);
    }
    // Per bin: 3 sqrts, 13 muls, 10 adds, 4 divs.
    const std::uint64_t bins = prep.nout;
    counting::add_to_active({.adds = 10 * bins,
                             .muls = 13 * bins,
                             .divs = 4 * bins,
                             .sqrts = 3 * bins});
}

/// Phases C/D of one window: attribute the phase-B engine ops to the
/// window's fft phase, then run the Lomb calculator.  A whole-window
/// estimate is complete after phase B.
void finish_window(const window_job& job, const window_state& st,
                   const fast_lomb_options& opt) {
    job.out->n_samples = job.t.size();
    job.out->mesh_span = st.prep.span;
    if (st.n_items == 0) {
        QPSA_ENSURES(job.out->spectrum.power.size() == st.prep.nout);
        return;
    }
    lomb_breakdown& bd = *job.bd;
    if (st.weights != nullptr) {
        // The weight forward's tally, counted where its live forward in
        // phase B would have counted it.
        counting::add_to_active(st.weights->stats.ops);
        bd.fft_stats += st.weights->stats;
    }
    bd.fft += bd.fft_stats.ops - st.fft_pre;
    lomb_combine(st, opt, *job.out, bd);
}

}  // namespace

std::shared_ptr<const weight_transform> make_weight_transform(
    const fft_engine& engine, const fast_lomb_options& opt) {
    const std::size_t mesh = opt.mesh_size;
    if (opt.mesh != mesh_mode::staircase_hold ||
        opt.packing != fft_packing::two_transforms || engine.whole_window() ||
        mesh == 0 || !(opt.ofac >= 1.0))
        return nullptr;
    QPSA_EXPECTS(engine.size() == mesh);
    const std::size_t n_data = staircase_cells(mesh, opt);
    if (n_data < 8) return nullptr;

    auto w = std::make_shared<weight_transform>();
    w->n_data = n_data;
    std::vector<real> wk2(mesh);
    staircase_weights(n_data, wk2);
    std::vector<cplx> z(mesh);
    widen_real(wk2, z);
    w->spectrum.resize(mesh);
    {
        counting::pause_scope pause;
        util::arena scratch;
        const fft_engine::batch_item item{z, w->spectrum, &w->stats};
        engine.forward_batched({&item, 1}, scratch);
    }
    const auto nf = static_cast<real>(n_data);
    w->bins.resize(mesh / 2 - 1);
    for (std::size_t k = 1; k < mesh / 2; ++k)
        w->bins[k - 1] = weight_terms(w->spectrum[k], nf);
    return w;
}

lomb_result fast_lomb(std::span<const real> t, std::span<const real> x,
                      const fft_engine& engine, const fast_lomb_options& opt,
                      lomb_breakdown* breakdown) {
    workspace ws;
    lomb_result res;
    fast_lomb(t, x, engine, opt, ws, res, breakdown);
    return res;
}

void fast_lomb(std::span<const real> t, std::span<const real> x,
               const fft_engine& engine, const fast_lomb_options& opt,
               workspace& ws, lomb_result& res, lomb_breakdown* breakdown,
               const hop_ctx* ctx, const weight_transform* weights) {
    lomb_breakdown local;
    const window_job job{t, x, &res, breakdown != nullptr ? breakdown : &local,
                         ctx};
    util::arena& mem = ws.scratch();
    util::arena::frame frame(mem);
    const window_state st = prepare_window(job, engine, opt, weights, mem);
    if (engine.whole_window()) {
        const fft_engine::estimate_item& e = st.estimate;
        counting::count_scope scope(*e.ops);
        engine.estimate(e.t, e.x, e.grid, e.stats, mem, *e.out, e.ctx);
    } else {
        engine.forward_batched(st.transforms(), mem);
    }
    finish_window(job, st, opt);
}

void fast_lomb_batched(std::span<window_job> jobs, const fft_engine& engine,
                       const fast_lomb_options& opt, workspace& ws,
                       const weight_transform* weights) {
    // A round holds the windows of one lane group: batch_width() windows
    // (one for engines without lanes).  The engine walks a round's
    // transforms (or, for whole-window estimators, the round's windows) in
    // groups of batch_width() anyway, so holding more windows gains
    // nothing and only deepens the scratch arena, about 40 KB per
    // mesh-512 window.
    const std::size_t round = engine.batch_width();
    const bool whole = engine.whole_window();

    // thread_local so steady-state batched drains stay allocation-free.
    thread_local std::vector<window_state> states;
    thread_local std::vector<fft_engine::batch_item> items;
    thread_local std::vector<fft_engine::estimate_item> estimates;
    util::arena& mem = ws.scratch();
    for (std::size_t begin = 0; begin < jobs.size(); begin += round) {
        const std::span<window_job> part =
            jobs.subspan(begin, std::min(round, jobs.size() - begin));
        util::arena::frame frame(mem);
        states.resize(part.size());
        items.clear();
        estimates.clear();

        // Phase A.  A window failing its data contracts is skipped
        // (ok = false) where the single-window call would throw.
        for (std::size_t i = 0; i < part.size(); ++i) {
            window_job& job = part[i];
            QPSA_EXPECTS(job.out != nullptr && job.bd != nullptr);
            try {
                states[i] = prepare_window(job, engine, opt, weights, mem);
                const auto tr = states[i].transforms();
                items.insert(items.end(), tr.begin(), tr.end());
                if (whole) estimates.push_back(states[i].estimate);
                job.ok = true;
            } catch (const contract_error&) {
                job.ok = false;
            }
        }

        // Phase B: one lane-batched walk over every surviving transform,
        // or one batched estimate over every surviving window.
        if (!items.empty()) engine.forward_batched(items, mem);
        if (!estimates.empty()) {
            engine.estimate_batched(estimates, mem);
            std::size_t e = 0;
            for (window_job& job : part)
                if (job.ok) job.ok = estimates[e++].ok;
        }

        // Phases C/D.
        for (std::size_t i = 0; i < part.size(); ++i)
            if (part[i].ok) finish_window(part[i], states[i], opt);
    }
}

}  // namespace qpsa::lomb
