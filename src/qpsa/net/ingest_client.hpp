// Ingest client: the front-end half of the remote ingest tier.  Routes
// admits and beats to K ingest_server shard processes with the same
// placement, identity and seed rules an in-process shard_router uses --
// so a cohort driven through sockets computes bit-identically to the
// same cohort driven in-process.
//
//   * placement -- patient_id -> shard via the shared consistent-hash
//     shard_map (process-stable, so the front-end never consults the
//     shards), overridden per-session after a migration;
//   * identity -- global session ids are dense in admission order;
//     stream seeds derive from the global id
//     (util::derive_stream_seed(base_seed, id)), matching shard_router;
//   * batching -- beats accumulate per shard and ship as beat_batch
//     frames (batch_beats per frame, amortizing syscalls); flush()
//     pushes every partial batch, sends a flush barrier to each shard
//     and waits for the acks -- after it returns, every shipped beat
//     has been drained into completed windows;
//   * migration -- migrate() asks the source shard for the session's
//     state (migrate_out -> migrate_state), hands it to the target
//     (adopt -> adopt_ack) and swings the local route; the beats that
//     follow flow to the new shard and the session resumes
//     bit-identically (its state carries ring, window, governor,
//     battery and RNG position).
//
// Single-threaded by design: one front-end thread owns the client (the
// daemons and tests drive it that way); shards serialize concurrent
// clients internally.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qpsa/net/socket.hpp"
#include "qpsa/service/session_state.hpp"
#include "qpsa/service/shard_map.hpp"

namespace qpsa::net {

struct ingest_client_options {
    /// Shard endpoints, indexed by shard id (the placement domain).
    std::vector<endpoint> shards;
    service::shard_map_options placement;
    /// Base for per-session stream seeds (must match the reference
    /// in-process deployment for bit-identity).
    std::uint64_t base_seed = 0x9b4e5eedULL;
    /// Beats per beat_batch frame.
    std::size_t batch_beats = 256;
    dial_options dial;
};

/// A queried session's completed work, for cross-process verification.
struct session_report {
    bool found = false;
    std::uint64_t global_id = 0;
    std::uint64_t windows_completed = 0;
    std::vector<service::mode_switch_event> switch_log;
    std::vector<core::window_report> reports;
};

/// Decode a session_state reply body (frame.hpp's layout).  Throws
/// service::wire_error on malformed bytes, a forged switch count
/// included.
session_report decode_session_state(std::span<const std::uint8_t> body);

class ingest_client {
public:
    explicit ingest_client(ingest_client_options opt);

    /// Dial every shard (with backoff) and send hellos.
    void connect();
    /// Send bye to every shard and close.
    void close();

    /// Admit a patient fleet-wide; returns the global session id.  The
    /// token is resolved to a full config by each shard's registry.
    std::uint64_t add_session(const std::string& patient_id,
                              const std::string& config_token);

    /// Queue one beat for its session's shard; ships a batch when full.
    void ingest(std::uint64_t global_id, real beat_time_s, real rr_s);

    /// Ship every partial batch, then barrier: flush each shard and
    /// await its ack.  Returns the summed windows_completed.
    std::uint64_t flush();

    /// One shard's snapshot (global-id rows), via stats_query.
    service::fleet_snapshot shard_stats(std::size_t shard);
    /// All shard snapshots merged in shard-index order -- bit-identical
    /// to the same fleet's in-process shard_router::fleet().
    service::fleet_snapshot merged_stats();

    /// Move a session to an explicit shard (no-op when already there).
    /// The caller must not have beats queued for it (flush first).
    void migrate(std::uint64_t global_id, std::size_t target_shard);

    /// The session's completed windows + switch log, from whichever
    /// shard currently hosts it.
    session_report query_session(std::uint64_t global_id);

    std::size_t shard_of(std::uint64_t global_id) const;
    std::size_t session_count() const noexcept { return routes_.size(); }
    std::uint64_t beats_sent() const noexcept { return beats_sent_; }
    std::uint64_t bytes_sent() const;
    std::uint64_t migrations() const noexcept { return migrations_; }

private:
    /// Ship shard k's partial batch, if any.
    void ship_batch(std::size_t k);
    /// Round-trip helper: send `req` and wait for a reply of type
    /// `want`; error frames throw net_error, anything else wire_error.
    frame request(std::size_t shard, msg_type type,
                  std::span<const std::uint8_t> body, msg_type want);

    ingest_client_options opt_;
    service::shard_map map_;
    std::vector<socket_conn> conns_;

    std::vector<std::uint32_t> routes_;  ///< global id -> shard
    /// Per-shard pending beat batch: (count, encoded body-so-far).  The
    /// body's leading u32 count is stored when the batch ships; its
    /// capacity is reused across batches.
    struct pending_batch {
        std::uint32_t count = 0;
        std::vector<std::uint8_t> body;
    };
    std::vector<pending_batch> pending_;

    std::uint64_t beats_sent_ = 0;
    std::uint64_t migrations_ = 0;
};

}  // namespace qpsa::net
