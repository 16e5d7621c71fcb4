// The three ledger workloads and why each exists.
//
//   replay-mix-1w  closed loop (ingest a chunk per patient, pump, repeat);
//                  one session_manager with ONE worker; 512 patients on the
//                  standard 8-config mix.  Batch re-analysis: per-core
//                  analysis cost dominates (lomb / wfft / dsp / simd engines,
//                  op counting, the monitor); scheduler, shards and journal
//                  do little.  Fixed-point and counting work (ROADMAP 2a/2b)
//                  shows up here.
//
//   live-sharded   open loop: beats fall due on an accelerated real-time
//                  schedule (4000 windows/s offered; at 8000 the serial pump
//                  path runs ~90 % busy and latency swings between runs) and
//                  are delivered once per 5 ms tick (shorter ticks make each
//                  pass a few windows, so worker wake-ups dominate and
//                  latency follows host noise); shard_router with K=4
//                  shards x 1 worker and a journal; 2048 patients on the
//                  paper's two systems (conventional split-radix + pruned
//                  wavelet) with seeded ectopic beats and short dropouts;
//                  the feeder snapshots + serializes every shard each
//                  simulated minute.  Durable live deployment: ingest, pump,
//                  router, snapshot/wire and journal dominate; fixed-point,
//                  whole-window engines and the hop cache are never used
//                  here (prediction: no change from 2b or the hop cache).
//                  ROADMAP 2c and item 4 show up here.
//
//   governed-hop   closed loop; one session_manager with FOUR workers; 1024
//                  patients, every config hop-aligned.  Half the sessions
//                  are battery-governed and walk conventional -> Q15 ->
//                  pruned at seeded points of the run; the other half run
//                  aligned welch / resampled / wavelet-exact.  Mode switches
//                  (set_config, hop-cache invalidation, plan-cache lookups),
//                  steady hop-cache reads, work stealing and lane fill at N
//                  workers: the only workload where the hop cache acts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cohort.hpp"
#include "qpsa/service/service.hpp"

namespace perfbench {

namespace core = qpsa::core;
namespace service = qpsa::service;

struct session_plan {
    std::string patient_id;
    core::psa_config analysis;
    core::quality_policy quality;
    qpsa::energy::battery_config battery;
    patient_stream stream;  ///< initial stream state (copied to replay)
};

struct workload {
    std::string name;
    bool open_loop = false;
    std::size_t workers = 1;
    std::size_t shards = 1;  ///< > 1 (or journal) runs behind shard_router
    bool journal = false;
    core::monitor_options monitor;
    std::vector<session_plan> sessions;

    // Closed loop: beats per patient per round, untimed warm-up rounds.
    std::size_t chunk = 64;
    std::size_t warmup_rounds = 6;

    // Open loop: simulated seconds per wall second, simulated warm-up
    // prefix, snapshot cadence (simulated seconds), and the ingest tick:
    // the feeder delivers what fell due and pumps at most once per tick
    // (wall seconds), as a receive loop batching arrivals would.
    real accel = 1.0;
    real warmup_sim_s = 0.0;
    real snapshot_every_sim_s = 60.0;
    real tick_s = 0.005;
};

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload's cohort from the seed.  `tiny` shrinks it for the
/// self-test (few patients; same shape, engines and layers).
workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// The standard 8-config mix (one config per engine kind of the ledger).
std::vector<core::psa_config> mode_mix();

/// Ledger kind label of a config: conventional, wavelet-exact,
/// wavelet-pruned, fixed-q15, fixed-q31, burg-ar, resampled, welch
/// (or "other").
std::string kind_name(const core::psa_config& cfg);

}  // namespace perfbench
