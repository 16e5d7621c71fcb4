// Journal scan-validation and crash recovery.
//
// scan_journal() walks one per-shard log front to back, CRC-checking
// every record: a truncated trailing record (the SIGKILL signature) is
// tolerated and flagged, anything else throws service::wire_error (see
// journal_format.hpp for the full policy).  rebuild_fleet_snapshot()
// turns a directory of per-shard logs back into the merged live
// fleet_snapshot: the journaled stats deltas are re-merged in their
// original order (so every floating-point sum re-associates identically)
// and the battery/quality columns are reconstructed from each session's
// last journaled post-window state -- bit-identical to what the running
// fleet would have reported, which CI gates on.
//
// Ingest-plane columns (beats_dropped/rejected, drop_alarms) are
// live-only telemetry: they count what the producer edge did, not what
// the analysis plane computed, and are not reconstructible from a
// drain-side journal.  A rebuilt snapshot reports them as zero; runs
// that compare rebuilt against live snapshots must be drop-free (CI's
// are).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qpsa/journal/journal_format.hpp"

namespace qpsa::journal {

/// Everything one journal file contains, validated.
struct journal_scan {
    bool header_present = false;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;

    std::vector<session_meta> sessions;  ///< admission (= id) order
    std::vector<beat_event> beats;       ///< drain order
    std::vector<report_event> reports;   ///< completion order
    /// Migration records in log order, each remembering how many reports
    /// preceded it -- enough chronology to decide whether a session's
    /// last state is a report or a migration checkpoint.
    struct scanned_migration {
        migration_event event;
        std::uint64_t reports_before = 0;
    };
    std::vector<scanned_migration> migrations;
    /// Journaled batch partials merged in record order -- the same
    /// operator+= sequence the live fleet_stats performed.
    service::fleet_snapshot stats;

    bool clean_close = false;  ///< footer present, counters cross-checked
    bool torn_tail = false;    ///< incomplete trailing record dropped
    journal_footer footer;     ///< valid when clean_close

    std::uint64_t records = 0;       ///< complete records (footer included)
    std::uint64_t record_bytes = 0;  ///< framed bytes of those records
};

/// Scan-validate a journal held in memory.
journal_scan scan_journal_bytes(std::span<const std::uint8_t> bytes);

/// Load and scan-validate one journal file.  Throws journal_error when
/// the file cannot be read, service::wire_error on corruption.
journal_scan scan_journal(const std::string& path);

/// The .qpsaj files under `dir`, sorted by filename.  Throws
/// journal_error when the directory cannot be listed.
std::vector<std::string> journal_files(const std::string& dir);

/// One shard's contribution to the fleet snapshot: the scanned stats
/// plus the per-session battery/quality columns and journal counters,
/// assembled exactly like session_manager::fleet() assembles the live
/// ones.
service::fleet_snapshot rebuild_shard_snapshot(const journal_scan& scan);

/// Crash recovery: scan every per-shard journal under `dir` and merge
/// the rebuilt shard snapshots in shard-index order -- the same merge
/// order shard_router::fleet() uses, hence bit-identical to the live
/// merged snapshot for a drop-free run.  An empty directory (or one
/// holding only empty/header-only logs) rebuilds an empty snapshot.
service::fleet_snapshot rebuild_fleet_snapshot(const std::string& dir);

}  // namespace qpsa::journal
