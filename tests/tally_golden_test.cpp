// Golden op tallies, one per engine kind.
//
// The paper prices every PSA configuration by the arithmetic it executes
// (Fig. 1(b), Fig. 5, Fig. 9), so the service's per-window tallies must
// stay exactly what the instrumented (per-operation counted) code
// records, whichever way the hot paths attribute them.  The constants
// below were captured on commit c3c7855, where every stage still counted
// live, by analyzing three fixed windows of one generated record through
// psa_system for each configuration; the burg-ar row was re-captured on
// commit 10f59fb, where the model PSD moved to Horner evaluation (one
// cos/sin per frequency).  A mismatch prints the full table in
// paste-ready form.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/counting/op_counter.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/physio/patients.hpp"

using qpsa::real;
namespace qc = qpsa::counting;
namespace qcore = qpsa::core;
namespace ql = qpsa::lomb;
namespace qp = qpsa::physio;
namespace qf = qpsa::wfft;
namespace qw = qpsa::wavelet;

namespace {

constexpr real k_window_s = 120.0;
constexpr real k_hop_s = 60.0;
constexpr std::size_t k_windows = 3;

/// Hop-aligned variant of a config, as the governed-hop fleet runs it:
/// mesh engines pinned to Lagrange extirpolation on the fixed 120 s span.
qcore::psa_config aligned(qcore::psa_config cfg, bool mesh) {
    if (mesh) cfg.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
    cfg.lomb.ofac = 1.0;
    cfg.lomb.span_override = 120.0;
    cfg.lomb.hop_aligned = true;
    return cfg;
}

struct golden_case {
    const char* name;
    qcore::psa_config cfg;
};

std::vector<golden_case> cases() {
    const qf::plan pruned =
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2);
    qcore::psa_config lagrange = qcore::psa_config::conventional();
    lagrange.lomb.mesh = ql::mesh_mode::lagrange_extirpolation;
    return {
        // The perfbench engine mix.
        {"conventional", qcore::psa_config::conventional()},
        {"wavelet-exact", qcore::psa_config::proposed(
                              qf::plan::exact(512, qw::basis::haar))},
        {"wavelet-pruned", qcore::psa_config::proposed(pruned)},
        {"fixed-q15", qcore::psa_config::fixed_wavelet(qcore::fixed_format::q15)},
        {"fixed-q31", qcore::psa_config::fixed_wavelet(qcore::fixed_format::q31)},
        {"burg-ar", qcore::psa_config::burg_ar()},
        {"resampled", qcore::psa_config::resampled()},
        {"welch", qcore::psa_config::welch()},
        // Live-counted plan: run-time band and term decisions.
        {"wavelet-dynamic",
         qcore::psa_config::proposed(qf::plan::dynamic_pruned(
             512, qw::basis::haar, qf::twiddle_set::set2, /*data_thr=*/0.5,
             /*band_thr=*/1e9))},
        // Window-anchored Lagrange extirpolation.
        {"conventional-lagrange", lagrange},
        // Hop-aligned configs (windows in order, each with its hop_ctx).
        {"aligned-welch", aligned(qcore::psa_config::welch(4.0, 30.0), false)},
        {"aligned-resampled", aligned(qcore::psa_config::resampled(), false)},
        {"aligned-wavelet-exact",
         aligned(qcore::psa_config::proposed(
                     qf::plan::exact(512, qw::basis::haar)),
                 true)},
    };
}

std::string fmt(const qc::op_counts& o) {
    std::ostringstream ss;
    ss << '{' << o.adds << ',' << o.muls << ',' << o.divs << ',' << o.sqrts
       << ',' << o.cmps << ',' << o.trigs << ',' << o.loads << ',' << o.stores
       << '}';
    return ss.str();
}

/// Every field of a window's per-phase breakdown and engine stats.
std::string fmt(const ql::lomb_breakdown& bd) {
    const qf::exec_stats& s = bd.fft_stats;
    std::ostringstream ss;
    ss << "m" << fmt(bd.moments) << " e" << fmt(bd.extirpolation) << " f"
       << fmt(bd.fft) << " c" << fmt(bd.combine) << " s" << fmt(s.ops) << ' '
       << s.terms_total << '/' << s.terms_pruned_factor << '/'
       << s.terms_pruned_data << '/' << s.terms_structural_zero << '/'
       << (s.band_dropped ? 1 : 0);
    return ss.str();
}

/// Windows [m * hop, m * hop + W) for m = 1..3 of one generated record.
struct window_set {
    std::array<std::vector<real>, k_windows> t, x;
};

const window_set& windows() {
    static const window_set w = [] {
        const qp::rr_record rec = qp::record_for(
            qp::make_patient(qp::cohort::sinus_arrhythmia, 1), 400.0);
        window_set out;
        for (std::size_t m = 0; m < k_windows; ++m) {
            const real w0 = static_cast<real>(m + 1) * k_hop_s;
            for (std::size_t i = 0; i < rec.beats(); ++i) {
                const real bt = rec.beat_time_s[i];
                if (bt < w0 || bt >= w0 + k_window_s) continue;
                out.t[m].push_back(bt);
                out.x[m].push_back(rec.rr_s[i]);
            }
        }
        return out;
    }();
    return w;
}

/// Per-window breakdowns plus the tally an enclosing scope saw over all
/// three windows.  Plain configs analyze the windows as one batch (the
/// lane-batched service path); hop-aligned ones analyze them in order,
/// one per call, each with its hop_ctx, exactly as a monitor does.
std::array<std::string, k_windows + 1> run(const qcore::psa_config& cfg) {
    const qcore::psa_system sys(cfg);
    const window_set& w = windows();
    ql::workspace ws;
    std::array<ql::lomb_result, k_windows> res;
    std::array<ql::lomb_breakdown, k_windows> bd;
    std::array<ql::window_job, k_windows> jobs;
    std::array<ql::hop_ctx, k_windows> ctx;
    qc::op_counts outer;
    {
        qc::count_scope scope(outer);
        for (std::size_t m = 0; m < k_windows; ++m) {
            jobs[m] = {w.t[m], w.x[m], &res[m], &bd[m], nullptr, false};
            if (cfg.lomb.hop_aligned) {
                ctx[m].window_index = static_cast<std::int64_t>(m + 1);
                ctx[m].hop_seconds = k_hop_s;
                ctx[m].window_start = static_cast<real>(m + 1) * k_hop_s;
                ctx[m].window_seconds = k_window_s;
                jobs[m].ctx = &ctx[m];
                sys.analyze_window_batched({&jobs[m], 1}, ws);
            }
        }
        if (!cfg.lomb.hop_aligned) sys.analyze_window_batched(jobs, ws);
    }
    std::array<std::string, k_windows + 1> out;
    for (std::size_t m = 0; m < k_windows; ++m) {
        EXPECT_TRUE(jobs[m].ok);
        out[m] = fmt(bd[m]);
    }
    std::ostringstream total;
    total << 'o' << fmt(outer);
    out[k_windows] = total.str();
    return out;
}

struct golden_row {
    const char* name;
    std::array<const char*, k_windows + 1> tallies;
};

// Captured on commit c3c7855 (live-counted reference walk); burg-ar
// re-captured on commit 10f59fb (Horner model PSD).
const std::vector<golden_row> k_golden = {
    {"conventional",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "o{74523,26899,798,594,1536,0,0,0}"}},
    {"wavelet-exact",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "o{87771,47323,798,594,1536,0,0,0}"}},
    {"wavelet-pruned",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{11752,5760,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{11752,5760,0,0,0,0,0,0} 1024/408/0/2/1",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{11752,5760,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{11752,5760,0,0,0,0,0,0} 1024/408/0/2/1",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{11752,5760,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{11752,5760,0,0,0,0,0,0} 1024/408/0/2/1",
      "o{41499,20251,798,594,1536,0,0,0}"}},
    {"fixed-q15",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "o{104523,144235,798,594,1536,0,0,0}"}},
    {"fixed-q31",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{32760,47088,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{32760,47088,0,0,0,0,0,0} 2048/4/0/0/0",
      "o{104523,144235,798,594,1536,0,0,0}"}},
    {"burg-ar",
     {"m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{43204,43106,628,0,544,132,0,0} c{0,0,0,0,0,0,0,0} s{43204,43106,628,0,544,132,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{42949,42860,625,0,541,132,0,0} c{0,0,0,0,0,0,0,0} s{42949,42860,625,0,541,132,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{42949,42860,625,0,541,132,0,0} c{0,0,0,0,0,0,0,0} s{42949,42860,625,0,541,132,0,0} 0/0/0/0/0",
      "o{130293,129223,1884,0,1626,396,0,0}"}},
    {"resampled",
     {"m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13680,6388,545,0,478,0,0,0} c{0,0,0,0,0,0,0,0} s{13680,6388,545,0,478,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13668,6379,542,0,475,0,0,0} c{0,0,0,0,0,0,0,0} s{13668,6379,542,0,475,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13668,6379,542,0,475,0,0,0} c{0,0,0,0,0,0,0,0} s{13668,6379,542,0,475,0,0,0} 0/0/0/0/0",
      "o{42207,19543,1635,0,1428,0,0,0}"}},
    {"welch",
     {"m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{25812,11388,542,0,474,0,0,0} c{0,0,0,0,0,0,0,0} s{25812,11388,542,0,474,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{25824,11397,545,0,477,0,0,0} c{0,0,0,0,0,0,0,0} s{25824,11397,545,0,477,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{25812,11388,542,0,474,0,0,0} c{0,0,0,0,0,0,0,0} s{25812,11388,542,0,474,0,0,0} 0/0/0/0/0",
      "o{78639,34570,1635,0,1425,0,0,0}"}},
    {"wavelet-dynamic",
     {"m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{12934,5054,2,0,1024,0,0,0} c{660,858,264,198,0,0,0,0} s{12934,5054,2,0,1024,0,0,0} 1024/0/841/2/1",
      "m{396,132,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{12942,5070,2,0,1024,0,0,0} c{660,858,264,198,0,0,0,0} s{12942,5070,2,0,1024,0,0,0} 1024/0/837/2/1",
      "m{399,133,2,0,0,0,0,0} e{1024,0,0,0,512,0,0,0} f{12970,5126,2,0,1024,0,0,0} c{660,858,264,198,0,0,0,0} s{12970,5126,2,0,1024,0,0,0} 1024/0/823/2/1",
      "o{45089,18221,804,594,4608,0,0,0}"}},
    {"conventional-lagrange",
     {"m{396,132,2,0,0,0,0,0} e{2872,3516,0,0,0,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{2872,3516,0,0,0,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{2894,3543,0,0,0,0,0,0} f{22760,7976,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{22760,7976,0,0,0,0,0,0} 0/0/0/0/0",
      "o{80089,37474,798,594,0,0,0,0}"}},
    {"aligned-welch",
     {"m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{86644,36197,885,0,817,0,0,0} c{0,0,0,0,0,0,0,0} s{86644,36197,885,0,817,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{86640,36194,884,0,816,0,0,0} c{0,0,0,0,0,0,0,0} s{86640,36194,884,0,816,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{86648,36200,886,0,818,0,0,0} c{0,0,0,0,0,0,0,0} s{86648,36200,886,0,818,0,0,0} 0/0/0/0/0",
      "o{261123,108988,2661,0,2451,0,0,0}"}},
    {"aligned-resampled",
     {"m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13676,6385,544,0,477,0,0,0} c{0,0,0,0,0,0,0,0} s{13676,6385,544,0,477,0,0,0} 0/0/0/0/0",
      "m{396,132,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13668,6379,542,0,475,0,0,0} c{0,0,0,0,0,0,0,0} s{13668,6379,542,0,475,0,0,0} 0/0/0/0/0",
      "m{399,133,2,0,0,0,0,0} e{0,0,0,0,0,0,0,0} f{13664,6376,541,0,474,0,0,0} c{0,0,0,0,0,0,0,0} s{13664,6376,541,0,474,0,0,0} 0/0/0/0/0",
      "o{42199,19537,1633,0,1426,0,0,0}"}},
    {"aligned-wavelet-exact",
     {"m{396,132,2,0,0,0,0,0} e{3020,4604,132,0,0,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "m{396,132,2,0,0,0,0,0} e{3020,4604,132,0,0,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "m{399,133,2,0,0,0,0,0} e{3039,4635,133,0,0,0,0,0} f{27176,14784,0,0,0,0,0,0} c{660,858,264,198,0,0,0,0} s{27176,14784,0,0,0,0,0,0} 2048/0/0/4/0",
      "o{93778,61166,1195,594,0,0,0,0}"}},
};

}  // namespace

TEST(TallyGoldenTest, EveryEngineKindMatchesCountedReference) {
    std::ostringstream table;
    bool all_match = true;
    const auto all = cases();
    for (const golden_case& c : all) {
        SCOPED_TRACE(c.name);
        const auto got = run(c.cfg);
        table << "    {\"" << c.name << "\",\n     {";
        for (std::size_t i = 0; i < got.size(); ++i)
            table << (i ? ",\n      " : "") << '"' << got[i] << '"';
        table << "}},\n";
        const golden_row* row = nullptr;
        for (const golden_row& r : k_golden)
            if (std::string(r.name) == c.name) row = &r;
        if (row == nullptr) {
            ADD_FAILURE() << "no golden row";
            all_match = false;
            continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], row->tallies[i]) << "entry " << i;
            all_match = all_match && got[i] == row->tallies[i];
        }
    }
    if (!all_match) ADD_FAILURE() << "measured table:\n" << table.str();
}

TEST(TallyGoldenTest, WindowsAreNontrivial) {
    const window_set& w = windows();
    for (std::size_t m = 0; m < k_windows; ++m) EXPECT_GT(w.t[m].size(), 100u);
}
