#include "qpsa/service/fleet_stats.hpp"

#include <algorithm>

#include "qpsa/journal/report_writer.hpp"

namespace qpsa::service {

fleet_snapshot& fleet_snapshot::operator+=(const fleet_snapshot& o) {
    windows += o.windows;
    beats += o.beats;
    arrhythmia_windows += o.arrhythmia_windows;
    energy += o.energy;
    for (std::size_t i = 0; i < by_engine.size(); ++i)
        by_engine[i] += o.by_engine[i];
    beats_dropped += o.beats_dropped;
    beats_rejected += o.beats_rejected;
    beats_overwritten += o.beats_overwritten;
    drop_alarms.insert(drop_alarms.end(), o.drop_alarms.begin(),
                       o.drop_alarms.end());
    mode_switches += o.mode_switches;
    battery_fraction_min = std::min(battery_fraction_min, o.battery_fraction_min);
    quality.insert(quality.end(), o.quality.begin(), o.quality.end());
    high_water_alarms += o.high_water_alarms;
    journal_appends += o.journal_appends;
    journal_bytes += o.journal_bytes;
    journal_fsyncs += o.journal_fsyncs;
    journal_torn_tails += o.journal_torn_tails;
    sessions_migrated_in += o.sessions_migrated_in;
    sessions_migrated_out += o.sessions_migrated_out;
    hop_hits += o.hop_hits;
    hop_misses += o.hop_misses;
    hop_bytes += o.hop_bytes;
    windows_stolen += o.windows_stolen;
    lane_slots_filled += o.lane_slots_filled;
    lane_slots_offered += o.lane_slots_offered;
    lf_sum += o.lf_sum;
    hf_sum += o.hf_sum;
    ratio_sum += o.ratio_sum;
    return *this;
}

real fleet_partial::add_report(const core::window_report& rep) {
    const energy::fleet_energy_totals priced =
        energy::price_window(*node_, vfs_deadline_s_, rep.ops);

    ++snap_.windows;
    snap_.beats += rep.beats;
    if (rep.diagnosis == hrv::diagnosis::sinus_arrhythmia)
        ++snap_.arrhythmia_windows;
    snap_.lf_sum += rep.bands.lf;
    snap_.hf_sum += rep.bands.hf;
    snap_.ratio_sum += rep.ratio();
    snap_.energy += priced;

    engine_tally& slot = snap_.by_engine[static_cast<std::size_t>(rep.engine)];
    ++slot.windows;
    slot.beats += rep.beats;
    slot.energy_nominal_j += priced.energy_nominal_j;
    return priced.energy_nominal_j;
}

fleet_stats::fleet_stats(energy::node_model node, real vfs_deadline_s)
    : node_(node), vfs_deadline_s_(vfs_deadline_s) {
    QPSA_EXPECTS(vfs_deadline_s >= 0.0);
}

void fleet_stats::merge(const fleet_partial& partial) {
    if (partial.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    agg_ += partial.snap_;
    // Journal the delta inside the same critical section: the log then
    // holds the exact operator+= sequence the live aggregate performed,
    // which is what makes a recovery rebuild bit-identical (floating-
    // point sums re-associate the same way).
    if (journal_ != nullptr) journal_->append_stats_delta(partial.snap_);
}

void fleet_stats::add_report(const core::window_report& rep) {
    fleet_partial partial = make_partial();
    partial.add_report(rep);
    merge(partial);
}

fleet_snapshot fleet_stats::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return agg_;
}

}  // namespace qpsa::service
