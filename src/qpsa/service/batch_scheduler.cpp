#include "qpsa/service/batch_scheduler.hpp"

#include <algorithm>

#include "qpsa/core/workspace_cache.hpp"
#include "qpsa/journal/report_writer.hpp"
#include "qpsa/simd/kernels.hpp"

namespace qpsa::service {

namespace {

/// Adaptive unit size (scheduler_options::batch_size == 0): see the
/// header comment for the heuristic.  A pure function of the ready count
/// and the SIMD lane width -- NOT the worker count -- so the unit
/// partition (and every float merge order downstream of it) is identical
/// for any pool size.
std::size_t adaptive_unit_size(std::size_t ready) {
    const std::size_t lane_floor =
        std::max<std::size_t>(16, 4 * simd::kernels().lanes);
    return std::clamp<std::size_t>(ready / 16, lane_floor, 128);
}

}  // namespace

batch_scheduler::batch_scheduler(thread_pool& pool, scheduler_options opt)
    : pool_(pool), opt_(opt), deques_(pool.size()) {}

std::size_t batch_scheduler::run_once(
    std::span<const std::unique_ptr<session>> sessions, fleet_stats& fleet) {
    ready_.clear();
    absorb_.clear();
    for (const auto& s : sessions) {
        if (!s->has_pending()) continue;
        if (s->due())
            ready_.push_back({s->staged_system()->engine_hash(), s.get()});
        else
            absorb_.push_back(s.get());
    }
    if (ready_.empty()) {
        absorb_pending();
        return 0;
    }

    // Plan locality: cluster same-engine sessions so each unit (and each
    // worker's run of units) hammers one engine shape.  stable_sort
    // keeps admission order within a group, so unit composition is
    // deterministic run to run.
    std::stable_sort(ready_.begin(), ready_.end(),
                     [](const ready_entry& a, const ready_entry& b) {
                         return a.engine_order < b.engine_order;
                     });

    const std::size_t unit_cap = opt_.batch_size != 0
                                     ? opt_.batch_size
                                     : adaptive_unit_size(ready_.size());

    // Cut units inside engine groups only -- a unit never spans two
    // engine keys -- so the staged drain fills lane groups from one
    // fleet-wide engine run instead of whatever crossed a slice boundary.
    units_.clear();
    std::size_t group = 0;
    while (group < ready_.size()) {
        std::size_t gend = group + 1;
        while (gend < ready_.size() &&
               ready_[gend].engine_order == ready_[group].engine_order)
            ++gend;
        for (std::size_t u = group; u < gend; u += unit_cap)
            units_.push_back({static_cast<std::uint32_t>(u),
                              static_cast<std::uint32_t>(
                                  std::min(u + unit_cap, gend)),
                              0, fleet.make_partial()});
        group = gend;
    }

    // Deal contiguous unit runs to the worker deques: contiguous so an
    // owner's execution order is unit index order (cache-hot engine
    // runs), and a thief's steal grabs from the far end of a neighbour.
    const std::size_t workers = deques_.size();
    for (std::size_t w = 0; w < workers; ++w)
        deques_[w].reset(
            static_cast<std::uint32_t>(units_.size() * w / workers),
            static_cast<std::uint32_t>(units_.size() * (w + 1) / workers));

    pool_.submit_per_worker([this](std::size_t w) { run_worker(w); });
    // Overlap: the caller absorbs the non-due sessions while the workers
    // drain the due ones (disjoint session sets).
    absorb_pending();
    pool_.wait_idle();

    // Deterministic pass-end merge: unit index order == session-id order
    // within each engine group, independent of worker count and steal
    // interleaving.  Journal stats_delta appends (inside fleet.merge)
    // inherit the same order, which is what keeps crash-recovery rebuilds
    // and replay bit-identical under stealing.
    std::size_t windows = 0;
    for (drain_unit& u : units_) {
        fleet.merge(u.partial);
        windows += u.windows;
    }
    return windows;
}

void batch_scheduler::absorb_pending() {
    // Group commit: the absorbed beats of the whole pass go to the journal
    // as one append_beats block (per journal; every session of a manager
    // shares one), committed before the pass returns -- so they precede
    // any report a later pass closes with them.
    journal::report_writer* journal = nullptr;
    const auto commit = [&] {
        if (!block_.empty()) journal->append_beats(block_);
        block_.clear();
    };
    for (session* s : absorb_) {
        if (s->journal() != journal) {
            commit();
            journal = s->journal();
        }
        s->absorb(block_);
    }
    commit();
}

void batch_scheduler::run_worker(std::size_t self) {
    std::uint32_t idx = 0;
    for (;;) {
        if (deques_[self].take(idx)) {
            run_unit(units_[idx], false);
            continue;
        }
        // Own range dry: steal from the back of the nearest non-empty
        // neighbour.  The scan order only affects which worker drains a
        // unit, never the merged result (pass-end merge is unit-ordered).
        bool found = false;
        for (std::size_t off = 1; off < deques_.size() && !found; ++off) {
            const std::size_t victim = (self + off) % deques_.size();
            if (deques_[victim].steal(idx)) {
                run_unit(units_[idx], true);
                found = true;
            }
        }
        if (!found) return;
    }
}

void batch_scheduler::run_unit(drain_unit& unit, bool stolen) {
    unit.windows = drain_lockstep(
        std::span<const ready_entry>(ready_.data() + unit.begin,
                                     unit.end - unit.begin),
        unit.partial);
    // Folded into the partial so windows_stolen travels in the journaled
    // stats_delta record: the log holds what actually happened, and the
    // rebuild reproduces it even though the steal pattern itself is not
    // deterministic.
    if (stolen) unit.partial.add_stolen_windows(unit.windows);
}

std::size_t batch_scheduler::drain_lockstep(
    std::span<const ready_entry> batch, fleet_partial& partial) {
    // Round scratch, reused across units on the same worker so the
    // steady-state allocs-per-window budget is untouched.
    thread_local std::vector<session*> active;
    thread_local std::vector<session*> group;
    thread_local std::vector<lomb::window_job> jobs;
    thread_local std::vector<char> claimed;
    // Off-pool backstop (inline schedulers in tests): workers normally
    // provide their own cache via thread_pool::current_workspace_cache.
    thread_local core::workspace_cache fallback_cache;

    std::size_t completed = 0;
    active.clear();
    for (const ready_entry& e : batch) active.push_back(e.s);

    while (!active.empty()) {
        // Pump every session that does not hold a staged window until it
        // stages one or runs dry (dry sessions leave the lockstep).  A
        // session whose previous window staged again inside finish_staged
        // keeps its window for this round untouched.
        std::size_t w = 0;
        for (session* s : active) {
            if (!s->has_staged_window() &&
                s->pump_to_stage(partial, completed) ==
                    session::pump_status::idle)
                continue;
            active[w++] = s;
        }
        active.resize(w);

        // Group staged windows by batch compatibility (same plan-cached
        // engine object + equal lomb options: the systems then perform
        // identical arithmetic) and run each group in one batched call --
        // a group of one is the same call, bit-identical either way.
        claimed.assign(active.size(), 0);
        for (std::size_t a = 0; a < active.size(); ++a) {
            if (claimed[a]) continue;
            const core::psa_system* sys = active[a]->staged_system();
            group.clear();
            jobs.clear();
            group.push_back(active[a]);
            jobs.push_back(active[a]->staged_job());
            for (std::size_t b = a + 1; b < active.size(); ++b) {
                if (claimed[b] == 0 &&
                    session::batch_compatible(*sys,
                                              *active[b]->staged_system())) {
                    claimed[b] = 1;
                    group.push_back(active[b]);
                    jobs.push_back(active[b]->staged_job());
                }
            }
            // Lane-fill accounting, mirroring fast_lomb_batched's rounds:
            // a group only executes lane-interleaved when it has >= 2
            // windows and a lane-capable engine (batch_width() >= 2; the
            // whole-window estimators batch their rounds' windows too).
            const std::size_t width = sys->engine().batch_width();
            if (jobs.size() >= 2 && width >= 2)
                partial.add_lane_fill(
                    jobs.size(),
                    width * ((jobs.size() + width - 1) / width));
            core::workspace_cache* wc = thread_pool::current_workspace_cache();
            lomb::workspace& ws =
                (wc != nullptr ? *wc : fallback_cache)
                    .get(sys->engine_key(), sys->engine_hash());
            sys->analyze_window_batched(jobs, ws);
            for (std::size_t g = 0; g < group.size(); ++g)
                group[g]->finish_staged(jobs[g].ok);
        }
    }
    return completed;
}

}  // namespace qpsa::service
