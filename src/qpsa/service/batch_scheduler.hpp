// Batch scheduler: drains ready sessions across the fleet.
//
// A pass runs one pipeline:
//   1. scan the fleet for sessions with buffered ingest and split them by
//      session::due(): a session is *due* when the newest beat its
//      producer pushed reaches its monitor's next window end, i.e. when
//      draining it may close a window;
//   2. order the due sessions by engine identity (the key hash each
//      psa_system caches) and cut them into engine-pure drain units (a
//      unit never spans two engine keys);
//   3. deal the units contiguously to per-worker deques (work_deque.hpp);
//      a worker drains its own range in index order and steals from the
//      back of a neighbour's range when it runs dry, so one slow
//      whole-window estimator does not idle the rest of the pool;
//   4. drain each unit in lockstep: pump every session to its next cut
//      window, group the staged windows by analysis system, run each
//      group through psa_system::analyze_window_batched (same-plan mesh
//      FFTs interleaved one per SIMD lane), finish the windows, repeat
//      until every session of the unit is dry;
//   5. meanwhile, on the calling thread, *absorb* every pending session
//      that is not due: session::absorb moves its beats that lie before
//      the next window end into the monitor.  Those beats only buffer,
//      so an absorb closes no window and the drain in step 4 stays the
//      only analysis path.  The caller gathers the absorbed beats' journal
//      records into one append_beats block per pass (group commit);
//   6. merge the per-unit fleet_partial accumulators at the pass barrier
//      (a pass with nothing due merges nothing).
//
// Absorbing overlaps the drain instead of preceding it: on a trickle-fed
// fleet most pending sessions carry a beat or two that close nothing,
// and visiting them on the workers (or in a serial prologue) costs more
// than the windows themselves.
//
// A session is always drained whole by a single worker, so its windows
// complete in beat order and its monitor is never touched by two threads;
// parallelism comes from running different patients on different workers,
// which is safe because all heavy analysis state (FFT engines, twiddle
// tables) is shared immutably via the plan cache.  Because units are cut
// inside engine groups, lane groups fill from anywhere in the fleet that
// runs the same plan; fleet_snapshot's lane_slots_filled /
// lane_slots_offered columns measure exactly this.
//
// Determinism: partials are merged in UNIT INDEX order -- session-id order
// within each engine group -- never in completion order, so fleet
// snapshots, journal stats_delta ordering and replay are bit-identical for
// any worker count and any steal interleaving.  (windows_stolen is the one
// exception by design: it counts scheduling events, not analysis results.
// It still travels in the journaled partials -- a rebuild reproduces the
// recorded value -- but cross-run comparisons must normalize it.)  The
// due/absorb split never changes a result: which beats a pass absorbs
// depends on the pump cadence, but a beat reaches its monitor in ring
// order either way and closes the same windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

class batch_scheduler {
public:
    batch_scheduler(thread_pool& pool, scheduler_options opt = {});

    /// One pass: dispatch every due session, absorb every other session
    /// with pending ingest, wait for the pass barrier, return the number
    /// of windows completed fleet-wide.  Callers serialize passes
    /// (session_manager::pump_mu_), so the pass scratch below is reused
    /// without locking.
    std::size_t run_once(std::span<const std::unique_ptr<session>> sessions,
                         fleet_stats& fleet);

private:
    struct ready_entry {
        std::size_t engine_order;  ///< engine-key hash (grouping key)
        session* s;
    };

    /// One engine-pure slice of the pass's ready set: drained whole by
    /// exactly one worker, its results merged at the pass barrier in
    /// unit index order.
    struct drain_unit {
        std::uint32_t begin;  ///< range in ready_
        std::uint32_t end;
        std::size_t windows;
        fleet_partial partial;  ///< results + scheduler telemetry columns
    };

    /// Step 5 above, on the calling thread.
    void absorb_pending();
    void run_worker(std::size_t self);
    void run_unit(drain_unit& unit, bool stolen);

    /// Lockstep drain of one unit (step 4 above); runs on a pool worker.
    /// Returns windows completed; the lane-fill tallies of every batched
    /// analyze call fold into `partial`.
    static std::size_t drain_lockstep(std::span<const ready_entry> batch,
                                      fleet_partial& partial);

    thread_pool& pool_;
    scheduler_options opt_;
    std::vector<ready_entry> ready_;  ///< pass scratch, capacity reused
    std::vector<session*> absorb_;    ///< pending, not due (pass scratch)
    std::vector<journal::beat_event> block_;  ///< absorbed beats' records
    std::vector<drain_unit> units_;   ///< pass scratch, capacity reused
    std::vector<work_deque> deques_;  ///< one per pool worker
};

}  // namespace qpsa::service
