// Fleet-level energy accounting.
//
// The paper prices one sensor node; a monitoring service fronts a whole
// fleet of them.  Every analysis window a session completes is priced on
// the node model (nominal V/f, and optionally VFS against the real-time
// deadline set by the window hop) and rolled into process totals, so the
// service can report joules per patient-hour for the entire deployment,
// not just op counts per window.
#pragma once

#include <cstdint>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/energy/node_model.hpp"

namespace qpsa::energy {

/// Accumulated footprint of all windows priced so far.
struct fleet_energy_totals {
    std::uint64_t windows = 0;
    counting::op_counts ops;           ///< summed operation counts
    double cycles = 0.0;               ///< node cycles at nominal V/f
    real time_nominal_s = 0.0;         ///< summed nominal execution time
    real energy_nominal_j = 0.0;       ///< summed energy, nominal V/f
    real energy_vfs_j = 0.0;           ///< summed energy under VFS deadlines

    real mean_energy_per_window_j() const {
        return windows == 0 ? 0.0
                            : energy_nominal_j / static_cast<real>(windows);
    }
    /// Fraction of nominal energy VFS saves across the fleet.
    real vfs_savings() const {
        return energy_nominal_j > 0.0
                   ? 1.0 - energy_vfs_j / energy_nominal_j
                   : 0.0;
    }

    fleet_energy_totals& operator+=(const fleet_energy_totals& o);
    bool operator==(const fleet_energy_totals&) const = default;
};

/// Price one completed window on `node`: totals with `windows == 1`.
/// `window_deadline_s` is the real-time budget per window for the VFS
/// column (typically the monitor hop interval); 0 disables the VFS
/// pricing (energy_vfs_j then mirrors nominal).  Each scheduler worker
/// prices into its own fleet_energy_totals and the fleet sums them with
/// operator+=.
fleet_energy_totals price_window(const node_model& node,
                                 real window_deadline_s,
                                 const counting::op_counts& ops);

}  // namespace qpsa::energy
