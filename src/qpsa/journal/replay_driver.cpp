#include "qpsa/journal/replay_driver.hpp"

#include <algorithm>
#include <unordered_map>

namespace qpsa::journal {

namespace {

/// Beats pushed per session per round before a pump interleaves the
/// sessions (any chunking yields the same reports).
constexpr std::size_t replay_round_beats = 256;

}  // namespace

replay_driver::replay_driver(const std::string& dir) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (const std::string& path : journal_files(dir)) {
        journal_scan scan = scan_journal(path);
        for (session_meta& m : scan.sessions) {
            if (index.contains(m.session_id))
                throw service::wire_error(
                    "journal: duplicate session id " +
                    std::to_string(m.session_id));
            index.emplace(m.session_id, sessions_.size());
            sessions_.push_back({std::move(m), {}, {}});
        }
        // Per-shard files keep per-session order; group by session.
        for (beat_event& b : scan.beats) {
            const auto it = index.find(b.session_id);
            if (it == index.end())
                throw service::wire_error(
                    "journal: beat for unknown session " +
                    std::to_string(b.session_id));
            sessions_[it->second].beats.push_back(b);
        }
        for (report_event& r : scan.reports) {
            const auto it = index.find(r.session_id);
            if (it == index.end())
                throw service::wire_error(
                    "journal: report for unknown session " +
                    std::to_string(r.session_id));
            sessions_[it->second].recorded.push_back(std::move(r.report));
        }
    }
    std::sort(sessions_.begin(), sessions_.end(),
              [](const session_replay& a, const session_replay& b) {
                  return a.meta.session_id < b.meta.session_id;
              });
}

replay_result replay_driver::run(const replay_config_fn& make_config,
                                 const replay_options& opt) const {
    service::session_manager mgr(opt.service);

    // Admit in recorded-id order; the record pins everything determinism
    // depends on, the caller's config supplies the analysis to run.
    for (const session_replay& rec : sessions_) {
        service::session_config cfg = make_config(rec.meta);
        cfg.seed = rec.meta.seed;
        cfg.monitor = rec.meta.monitor;
        cfg.keep_reports = true;
        if (cfg.patient_id.empty()) cfg.patient_id = rec.meta.patient_id;
        mgr.add_session(std::move(cfg));
    }

    // Chunked round-robin ingest with a pump between rounds -- the same
    // interleaving shape a live fleet sees, though any other would yield
    // the same reports.  A full ring retries the *same* beat after a
    // pump, so each monitor sees its recorded stream exactly.
    replay_result res;
    res.sessions = sessions_.size();
    std::vector<std::size_t> next(sessions_.size(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            const auto& beats = sessions_[i].beats;
            std::size_t pushed = 0;
            while (next[i] < beats.size() && pushed < replay_round_beats) {
                const beat_event& b = beats[next[i]];
                while (!mgr.ingest(i, b.beat_time_s, b.rr_s)) mgr.pump();
                ++next[i];
                ++pushed;
                ++res.beats;
            }
            if (next[i] < beats.size()) more = true;
        }
        mgr.pump();
    }
    mgr.drain_all();
    for (std::size_t i = 0; i < sessions_.size(); ++i)
        res.windows += mgr.at(i).windows_completed();

    // Bitwise fidelity against the journaled reports.
    bool identical = true;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const auto replayed = mgr.at(i).reports();
        const auto& recorded = sessions_[i].recorded;
        res.reports_compared += recorded.size();
        if (replayed.size() != recorded.size()) identical = false;
        const std::size_t n = std::min(replayed.size(), recorded.size());
        for (std::size_t k = 0; k < n; ++k)
            if (replayed[k] == recorded[k])
                ++res.reports_matched;
            else
                identical = false;
    }
    res.all_identical = identical && res.reports_compared > 0;
    res.fleet = mgr.fleet();
    return res;
}

replay_result replay_driver::run_with(const core::psa_config& analysis,
                                      const replay_options& opt) const {
    return run(
        [&analysis](const session_meta&) {
            service::session_config cfg;
            cfg.analysis = analysis;
            return cfg;
        },
        opt);
}

}  // namespace qpsa::journal
