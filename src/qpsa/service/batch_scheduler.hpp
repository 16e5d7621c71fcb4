// Batch scheduler: drains ready sessions across the fleet.
//
// A pass runs one pipeline over one or more *shards* (a shard is a
// session_manager's sessions plus the fleet_stats its windows merge into;
// a standalone manager passes itself, shard_router passes all K):
//   1. scan every shard for sessions with buffered ingest and keep the
//      ready ones (session::ready(): the newest pushed beat reaches the
//      monitor's next window end, or the beats cannot wait -- unstarted
//      monitor or ring at least half full).  Every
//      other session keeps its beats in the ring for a later pass; a
//      drain_all pass keeps every pending session instead;
//   2. order the kept sessions by engine identity (the key hash each
//      psa_system caches), cut each shard's share of an engine group into
//      *slices* exactly as a pass over that shard alone would cut its
//      units, and pack whole slices into engine-pure drain units (a unit
//      never spans two engine keys, but may span shards);
//   3. deal the units contiguously to per-worker deques (work_deque.hpp);
//      a worker drains its own range in index order and steals from the
//      back of a neighbour's range when it runs dry, so one slow
//      whole-window estimator does not idle the rest of the pool;
//   4. drain each unit in lockstep: pump every session to its next cut
//      window, group the staged windows by analysis system, run each
//      group through psa_system::analyze_window_batched (same-plan mesh
//      FFTs interleaved one per SIMD lane), finish the windows, repeat
//      until every session of the unit is dry;
//   5. at the pass barrier, each shard's fleet_stats merges its slices'
//      partials in slice order (empty partials merge nothing).
//
// Leaving non-ready sessions in their rings is what makes a pass cost
// scale with windows rather than beats: on a trickle-fed fleet most
// pending sessions carry a beat or two that close nothing, and the pass
// never touches them until a window falls due.
//
// A session is always drained whole by a single worker, so its windows
// complete in beat order and its monitor is never touched by two threads;
// parallelism comes from running different patients on different workers,
// which is safe because all heavy analysis state (FFT engines, twiddle
// tables) is shared immutably via the plan cache.  Because units are cut
// inside engine groups across every shard of the pass, lane groups fill
// from anywhere in the fleet that runs the same plan; fleet_snapshot's
// lane_slots_filled / lane_slots_offered columns measure exactly this.
//
// Determinism: each shard merges one partial per slice, in slice order --
// session order within each engine group -- never in completion order.
// A slice's partial sums its windows in the order of the unit a pass over
// that shard alone would drain, so per-shard fleet snapshots, journal
// stats_delta ordering and replay are bit-identical for any worker count,
// any steal interleaving and whichever shards share the pass: a shard of
// an in-process router equals a shard process.  The drain-scheduler
// columns are the exception by design -- lane fill depends on which
// shards share a lane group, and windows_stolen counts scheduling events
// (cross-run comparisons normalize it) -- but both still travel in the
// journaled partials, so a rebuild reproduces them.  Which pass drains a
// beat depends on the pump cadence, but a beat reaches its monitor in
// ring order either way and closes the same windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session.hpp"
#include "qpsa/service/thread_pool.hpp"
#include "qpsa/service/work_deque.hpp"

namespace qpsa::service {

struct scheduler_options {
    /// Sessions per drain unit.  0 (the default) sizes units adaptively:
    /// clamp(ready / 16, max(16, 4 * simd lanes), 128).  The floor keeps
    /// a unit wide enough to fill several SIMD lane groups from one
    /// engine run, the ready/16 shape yields ~16 units per pass for the
    /// deques to balance, and the cap bounds the latency cost of a steal
    /// arriving late.  Deliberately independent of the worker count, so
    /// the unit partition -- and with it every float merge order -- is
    /// identical for any pool size.  An explicit value pins the unit size
    /// (tests use small units to force multi-unit passes on small fleets).
    std::size_t batch_size = 0;
};

/// One partition of a pass: a manager's published sessions and the
/// fleet_stats their windows merge into.
struct pass_shard {
    std::span<const std::unique_ptr<session>> sessions;
    fleet_stats* fleet;
};

/// Which pending sessions a pass drains.
enum class drain_scope {
    ready,        ///< session::ready() only (pump)
    all_pending,  ///< every session with buffered ingest (drain_all)
};

class batch_scheduler {
public:
    /// Owns a pool of `threads` workers (0 = hardware concurrency).
    batch_scheduler(std::size_t threads, scheduler_options opt = {});

    /// Serializes passes, and anything that must not overlap one (session
    /// extraction).  Hold it across run_once.
    std::mutex& pass_mutex() noexcept { return pass_mu_; }

    /// One pass over `shards` (caller holds pass_mutex()): drain the
    /// sessions `scope` selects, wait for the pass barrier, merge, and
    /// return the number of windows completed.
    std::size_t run_once(std::span<const pass_shard> shards,
                         drain_scope scope);

    std::size_t worker_count() const noexcept { return pool_.size(); }

private:
    struct ready_entry {
        std::size_t engine_order;  ///< engine-key hash (grouping key)
        session* s;
        std::uint32_t shard;  ///< index into the pass's shards
        std::uint32_t slice;  ///< index into partials_
    };

    /// Whole slices of one engine group, drained by exactly one worker.
    /// A slice is one shard's share of a unit: the sessions a pass over
    /// that shard alone would drain as one unit, with its own partial.
    struct drain_unit {
        std::uint32_t begin;  ///< range in ready_
        std::uint32_t end;
        std::uint32_t slice_begin;  ///< range in partials_
        std::uint32_t slice_end;
    };

    void run_worker(std::size_t self);
    void run_unit(std::size_t index, bool stolen);

    /// Lockstep drain of one unit (step 4 above); runs on a pool worker.
    /// Completed windows and the lane-fill tallies of every batched
    /// analyze call fold into partials[entry.slice] (a lane group counts
    /// on its first session's slice).
    static void drain_lockstep(std::span<const ready_entry> batch,
                               fleet_partial* partials);

    thread_pool pool_;
    scheduler_options opt_;
    std::mutex pass_mu_;
    // Pass scratch, capacity reused.
    std::vector<ready_entry> ready_;
    std::vector<std::size_t> shard_ready_;  ///< ready sessions per shard
    std::vector<drain_unit> units_;
    std::vector<std::uint32_t> slice_shard_;  ///< shard of each slice
    std::vector<fleet_partial> partials_;     ///< one per slice
    std::vector<work_deque> deques_;  ///< one per pool worker
    std::size_t workers_ = 0;  ///< workers (and deques) this pass uses
};

}  // namespace qpsa::service
