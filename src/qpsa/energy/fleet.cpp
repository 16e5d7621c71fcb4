#include "qpsa/energy/fleet.hpp"

#include <algorithm>

namespace qpsa::energy {

fleet_energy_totals& fleet_energy_totals::operator+=(
    const fleet_energy_totals& o) {
    windows += o.windows;
    ops += o.ops;
    cycles += o.cycles;
    time_nominal_s += o.time_nominal_s;
    energy_nominal_j += o.energy_nominal_j;
    energy_vfs_j += o.energy_vfs_j;
    return *this;
}

fleet_energy_totals price_window(const node_model& node,
                                 real window_deadline_s,
                                 const counting::op_counts& ops) {
    fleet_energy_totals t;
    t.windows = 1;
    t.ops = ops;
    const run_summary nominal = node.run_nominal(ops);
    t.cycles = nominal.cycles;
    t.time_nominal_s = nominal.time_s;
    t.energy_nominal_j = nominal.energy_j;
    if (window_deadline_s > 0.0 && nominal.time_s < window_deadline_s) {
        // A node applies VFS only when it wins: for very light windows the
        // leakage charged over the full relaxed deadline can exceed the
        // nominal run-and-sleep energy, in which case it stays nominal.
        t.energy_vfs_j =
            std::min(nominal.energy_j,
                     node.run_vfs(ops, window_deadline_s).energy_j);
    } else {
        t.energy_vfs_j = nominal.energy_j;
    }
    return t;
}

}  // namespace qpsa::energy
