// Durable append-only journal writer (one per shard).
//
// The writer is the fleet's `on_report` sink, fed from two places per
// scheduler pass:
//   * each drained session appends its staged beats, then its window
//     report, from whichever worker drains it -- the stage is flushed
//     before every report and when the session runs dry, so a session's
//     beats always precede the reports they produced;
//   * fleet_stats appends each merged batch partial at the pass barrier.
// A beat reaches the journal when its session drains: a pass leaves a
// session's beats in its ring until a window falls due (see
// batch_scheduler.hpp), so a beat is journaled at most about one hop
// after ingest -- the same order of delay as the 256 KiB staging buffer
// and the 4 MiB default fsync cadence below.
// Everything lands in one file through an arena-backed staging buffer --
// the hot path copies a few dozen bytes under a short mutex and never
// touches the heap.  Staged bytes are
// written when the buffer fills and fsync'd on a byte cadence, so
// durability is batched the same way the scheduler batches windows:
// a crash loses at most the unsynced suffix, never the file's integrity
// (see journal_format.hpp for the recovery rules).
//
// Threading: every append takes the writer mutex.  Contention mirrors
// fleet_stats -- per-window appends are short memcpys, the per-batch
// stats_delta rides the merge that already serializes on the stats
// mutex.  counters() is lock-free (atomics) so fleet snapshots can read
// journal telemetry while workers append.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "qpsa/journal/journal_format.hpp"
#include "qpsa/util/arena.hpp"

namespace qpsa::journal {

struct writer_options {
    /// Topology stamped into the file header; rebuild_fleet_snapshot
    /// merges shard files in index order and cross-checks the count.
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;

    /// Staging buffer size: records accumulate here and are written in
    /// one syscall when it fills (or on flush/close).
    std::size_t staging_bytes = std::size_t{1} << 18;

    /// fsync after this many bytes reach the file; 0 disables cadence
    /// syncs (only flush(true) and close() sync).  Small values bound
    /// data loss under power failure at a throughput cost.
    std::size_t fsync_interval_bytes = std::size_t{1} << 22;
};

/// Lock-free view of the writer's lifetime counters (the journal columns
/// of fleet_snapshot).
struct writer_counters {
    std::uint64_t appends = 0;  ///< records accepted (staged or written)
    std::uint64_t bytes = 0;    ///< framed bytes of those records
    std::uint64_t fsyncs = 0;   ///< fsync syscalls issued
};

class report_writer {
public:
    /// Creates/truncates `path` and writes the file header.  Throws
    /// journal_error when the file cannot be opened.
    explicit report_writer(std::string path, writer_options opt = {});
    ~report_writer();

    report_writer(const report_writer&) = delete;
    report_writer& operator=(const report_writer&) = delete;

    void append_session_meta(const session_meta& meta);
    void append_beat(std::uint64_t session_id, real beat_time_s, real rr_s);
    /// Append a run of beats, framed outside the mutex and staged in
    /// blocks of up to 256 records per mutex acquisition.  Drained
    /// sessions flush their per-session stages here (before any report
    /// record, so a session's beats always precede the reports they
    /// produced) -- per-beat locking is what a live fleet cannot afford.
    void append_beats(std::span<const beat_event> beats);
    void append_report(const report_event& ev);
    /// Append one migration record (session_manager logs an "out" on
    /// extraction and a session_meta + "in" pair on adoption).
    void append_migration(const migration_event& ev);
    /// Append one merged batch partial.  Called by fleet_stats::merge
    /// under the stats mutex, in merge order -- the ordering contract the
    /// bit-identical rebuild rests on.
    void append_stats_delta(const service::fleet_snapshot& delta);

    /// Write staged bytes out; `sync` additionally fsyncs.
    void flush(bool sync = true);

    /// Flush, append the footer and fsync.  Idempotent; after close()
    /// further appends are contract errors.
    void close();

    writer_counters counters() const noexcept {
        return {appends_.load(std::memory_order_relaxed),
                bytes_.load(std::memory_order_relaxed),
                fsyncs_.load(std::memory_order_relaxed)};
    }
    const std::string& path() const noexcept { return path_; }
    const writer_options& options() const noexcept { return opt_; }

private:
    /// Frame a payload (type byte + body) and stage it; flushes first
    /// when the staging buffer cannot hold it.  Caller holds mu_.
    void put_record(record_type type, std::span<const std::uint8_t> body);
    /// Stage a block of already-framed records (append_beats builds them
    /// outside the mutex).  Caller holds mu_.
    void put_framed_block(std::span<const std::uint8_t> block,
                          std::uint64_t records);
    /// Write staged bytes via write(2); cadence fsyncs only when allowed
    /// (close() suppresses them so the footer's fsync count stays exact).
    void flush_locked(bool allow_cadence_sync);
    void write_raw(std::span<const std::uint8_t> bytes);
    void sync_locked();

    std::string path_;
    writer_options opt_;
    int fd_ = -1;
    bool closed_ = false;

    std::mutex mu_;
    util::arena arena_;                 ///< owns the staging storage
    std::span<std::uint8_t> staging_;
    std::size_t staged_ = 0;            ///< bytes currently staged
    std::size_t unsynced_ = 0;          ///< bytes written since last fsync

    std::atomic<std::uint64_t> appends_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> fsyncs_{0};
};

}  // namespace qpsa::journal
