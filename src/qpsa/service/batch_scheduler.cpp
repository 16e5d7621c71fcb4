#include "qpsa/service/batch_scheduler.hpp"

#include <algorithm>

#include "qpsa/core/workspace_cache.hpp"
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

batch_scheduler::batch_scheduler(std::size_t threads, scheduler_options opt)
    : pool_(threads), opt_(opt), deques_(pool_.size()) {}

std::size_t batch_scheduler::run_once(std::span<const pass_shard> shards,
                                      drain_scope scope) {
    ready_.clear();
    shard_ready_.assign(shards.size(), 0);
    for (std::size_t k = 0; k < shards.size(); ++k)
        for (const auto& s : shards[k].sessions)
            if (s->has_pending() &&
                (scope == drain_scope::all_pending || s->ready())) {
                ready_.push_back({s->staged_system()->engine_hash(), s.get(),
                                  static_cast<std::uint32_t>(k), 0});
                ++shard_ready_[k];
            }
    if (ready_.empty()) return 0;

    // Plan locality: cluster same-engine sessions so each unit (and each
    // worker's run of units) hammers one engine shape.  stable_sort
    // keeps shard-then-admission order within a group, so unit
    // composition is deterministic run to run.
    std::stable_sort(ready_.begin(), ready_.end(),
                     [](const ready_entry& a, const ready_entry& b) {
                         return a.engine_order < b.engine_order;
                     });

    // Cut each shard's run of an engine group into slices exactly as a
    // pass over that shard alone would cut its units, and pack whole
    // slices into units inside engine groups only -- a unit never spans
    // two engine keys, so the staged drain fills lane groups from one
    // fleet-wide engine run.
    const auto cap = [this](std::size_t ready) {
        return opt_.batch_size != 0 ? opt_.batch_size
                                    : adaptive_unit_size(ready);
    };
    const std::size_t unit_cap = cap(ready_.size());
    units_.clear();
    slice_shard_.clear();
    partials_.clear();
    std::size_t run = 0;
    while (run < ready_.size()) {
        const std::uint32_t k = ready_[run].shard;
        std::size_t run_end = run + 1;
        while (run_end < ready_.size() && ready_[run_end].shard == k &&
               ready_[run_end].engine_order == ready_[run].engine_order)
            ++run_end;
        const std::size_t slice_cap = cap(shard_ready_[k]);
        for (std::size_t b = run; b < run_end; b += slice_cap) {
            const auto e = static_cast<std::uint32_t>(
                std::min(b + slice_cap, run_end));
            const auto slice = static_cast<std::uint32_t>(partials_.size());
            if (units_.empty() ||
                ready_[units_.back().begin].engine_order !=
                    ready_[b].engine_order ||
                units_.back().end - units_.back().begin + (e - b) > unit_cap)
                units_.push_back(
                    {static_cast<std::uint32_t>(b), 0, slice, 0});
            for (std::size_t i = b; i < e; ++i) ready_[i].slice = slice;
            slice_shard_.push_back(k);
            partials_.push_back(shards[k].fleet->make_partial());
            units_.back().end = e;
            units_.back().slice_end = slice + 1;
        }
        run = run_end;
    }

    // Deal contiguous unit runs to the worker deques: contiguous so an
    // owner's execution order is unit index order (cache-hot engine
    // runs), and a thief's steal grabs from the far end of a neighbour.
    // A pass wakes at most one worker per unit; a live pass often has
    // fewer units than the pool has workers.
    workers_ = std::min(deques_.size(), units_.size());
    for (std::size_t w = 0; w < workers_; ++w)
        deques_[w].reset(
            static_cast<std::uint32_t>(units_.size() * w / workers_),
            static_cast<std::uint32_t>(units_.size() * (w + 1) / workers_));

    pool_.submit_per_worker(workers_,
                            [this](std::size_t w) { run_worker(w); });
    pool_.wait_idle();

    // Deterministic pass-end merge in slice order: each shard folds its
    // slices' partials in engine-group-then-slice order -- the unit order
    // of a pass over that shard alone -- independent of worker count,
    // steal interleaving and the other shards.  Journal stats_delta
    // appends (inside merge) inherit the same order, which is what keeps
    // crash-recovery rebuilds and replay bit-identical under stealing.
    std::size_t windows = 0;
    for (std::size_t i = 0; i < partials_.size(); ++i) {
        shards[slice_shard_[i]].fleet->merge(partials_[i]);
        windows += partials_[i].data().windows;
    }
    return windows;
}

void batch_scheduler::run_worker(std::size_t self) {
    std::uint32_t idx = 0;
    for (;;) {
        if (deques_[self].take(idx)) {
            run_unit(idx, false);
            continue;
        }
        // Own range dry: steal from the back of the nearest non-empty
        // neighbour.  The scan order only affects which worker drains a
        // unit, never the merged result (pass-end merge is unit-ordered).
        bool found = false;
        for (std::size_t off = 1; off < workers_ && !found; ++off) {
            const std::size_t victim = (self + off) % workers_;
            if (deques_[victim].steal(idx)) {
                run_unit(idx, true);
                found = true;
            }
        }
        if (!found) return;
    }
}

void batch_scheduler::run_unit(std::size_t index, bool stolen) {
    const drain_unit& unit = units_[index];
    drain_lockstep(std::span<const ready_entry>(ready_.data() + unit.begin,
                                                unit.end - unit.begin),
                   partials_.data());
    // Folded into the partials so windows_stolen travels in the journaled
    // stats_delta record: the log holds what actually happened, and the
    // rebuild reproduces it even though the steal pattern itself is not
    // deterministic.
    if (stolen)
        for (std::uint32_t i = unit.slice_begin; i < unit.slice_end; ++i)
            partials_[i].add_stolen_windows(partials_[i].data().windows);
}

void batch_scheduler::drain_lockstep(std::span<const ready_entry> batch,
                                     fleet_partial* partials) {
    // Round scratch, reused across units on the same worker so the
    // steady-state allocs-per-window budget is untouched.
    thread_local std::vector<const ready_entry*> active;
    thread_local std::vector<session*> group;
    thread_local std::vector<lomb::window_job> jobs;
    thread_local std::vector<char> claimed;
    // Off-pool backstop (inline schedulers in tests): workers normally
    // provide their own cache via thread_pool::current_workspace_cache.
    thread_local core::workspace_cache fallback_cache;

    active.clear();
    for (const ready_entry& e : batch) active.push_back(&e);

    while (!active.empty()) {
        // Pump every session that does not hold a staged window until it
        // stages one or runs dry (dry sessions leave the lockstep).  A
        // session whose previous window staged again inside finish_staged
        // keeps its window for this round untouched.
        std::size_t w = 0;
        for (const ready_entry* e : active) {
            if (!e->s->has_staged_window() &&
                e->s->pump_to_stage(partials[e->slice]) ==
                    session::pump_status::idle)
                continue;
            active[w++] = e;
        }
        active.resize(w);

        // Group staged windows by batch compatibility (same plan-cached
        // engine object + equal lomb options: the systems then perform
        // identical arithmetic) and run each group in one batched call --
        // a group of one is the same call, bit-identical either way.
        claimed.assign(active.size(), 0);
        for (std::size_t a = 0; a < active.size(); ++a) {
            if (claimed[a]) continue;
            session* lead = active[a]->s;
            const core::psa_system* sys = lead->staged_system();
            group.clear();
            jobs.clear();
            group.push_back(lead);
            jobs.push_back(lead->staged_job());
            for (std::size_t b = a + 1; b < active.size(); ++b) {
                session* other = active[b]->s;
                if (claimed[b] == 0 &&
                    session::batch_compatible(*sys, *other->staged_system())) {
                    claimed[b] = 1;
                    group.push_back(other);
                    jobs.push_back(other->staged_job());
                }
            }
            // Lane-fill accounting, mirroring fast_lomb_batched's rounds:
            // a group only executes lane-interleaved when it has >= 2
            // windows and a lane-capable engine (batch_width() >= 2; the
            // whole-window estimators batch their rounds' windows too).
            const std::size_t width = sys->engine().batch_width();
            if (jobs.size() >= 2 && width >= 2)
                partials[active[a]->slice].add_lane_fill(
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
}

}  // namespace qpsa::service
