// One ledger run: a workload's untraced measurement (end-to-end metrics)
// or, with tracing, the same beats replayed through a decorated fleet plus
// a serial layer replay (per-layer metrics), each checked window by
// window against a serial streaming_monitor reference.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test size: a few dozen patients, sub-second phases.
    bool tiny = false;
    /// Self-test of the gate: drop one beat from session 0's reference
    /// stream, which must make the run fail.
    bool perturb_reference = false;
    /// Working directory for journals and trace output (inside the
    /// benchmark's build directory).
    std::string work_dir = ".";
};

struct run_result {
    bool correct = false;
    std::uint64_t attempted = 0;  ///< windows the reference expects
    std::uint64_t failed = 0;     ///< missing + extra + mismatched + refused
    std::size_t workers = 0;
    std::size_t shards = 0;
    metric_list metrics;
};

run_result run_ledger(const run_options& opt);

}  // namespace perfbench
