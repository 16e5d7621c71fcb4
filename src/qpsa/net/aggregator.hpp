// Aggregator daemon core: accepts N snapshot publishers and rolls their
// shard snapshots into one fleet view -- the cross-process analogue of
// shard_router::fleet().
//
// Runs on a frame_server (one thread per connection; see server.hpp):
// every snapshot frame replaces that shard's latest state (snapshots
// are whole-state, so only the newest matters), heartbeats refresh
// liveness, and a peer that goes silent past the heartbeat timeout is
// dropped (it will redial; see snapshot_publisher).  Query connections
// ask stats_query and get the merged snapshot back as a stats_reply.
//
// Merge identity: merged() deserializes nothing and re-sorts nothing --
// it operator+=s the per-shard snapshots in shard-index order, exactly
// the order shard_router::fleet() merges in-process shards, so a fleet
// split across processes rolls up bit-identically to the same fleet in
// one process (CI asserts this).  Per-session rows need no remapping:
// every session is named by its fleet-wide id on every shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "qpsa/net/server.hpp"
#include "qpsa/service/fleet_stats.hpp"

namespace qpsa::net {

struct aggregator_options {
    endpoint listen;
    /// Drop a connection silent for longer than this (a live publisher
    /// heartbeats or publishes well inside it); the server's
    /// per-connection I/O deadline.
    int heartbeat_timeout_ms = 5000;
};

class aggregator {
public:
    explicit aggregator(aggregator_options opt);

    aggregator(const aggregator&) = delete;
    aggregator& operator=(const aggregator&) = delete;

    /// Begin accepting connections (idempotent).
    void start() { server_.start(); }
    /// Stop accepting, close every connection, join all threads.
    void stop() { server_.stop(); }

    /// The bound address (ephemeral TCP ports resolved).
    const endpoint& local() const noexcept { return server_.local(); }

    /// Latest-per-shard snapshots merged in shard-index order.
    service::fleet_snapshot merged() const;
    /// Shards that have published at least once.
    std::size_t shards_reporting() const;

    std::uint64_t snapshots_received() const noexcept {
        return snapshots_.load(std::memory_order_relaxed);
    }
    std::uint64_t connections_accepted() const noexcept {
        return server_.connections_accepted();
    }
    std::uint64_t heartbeats_received() const noexcept {
        return heartbeats_.load(std::memory_order_relaxed);
    }
    std::uint64_t bytes_received() const noexcept {
        return server_.bytes_received();
    }

private:
    /// snapshot, heartbeat and stats_query; frame_server runs the rest.
    bool handle(socket_conn& conn, const frame& f);

    mutable std::mutex snap_mu_;
    /// Latest snapshot per shard index (ordered -- merge order).
    std::map<std::uint32_t, service::fleet_snapshot> latest_;

    std::atomic<std::uint64_t> snapshots_{0};
    std::atomic<std::uint64_t> heartbeats_{0};
    /// Last member: its threads use the ones above, so it stops first.
    frame_server server_;
};

}  // namespace qpsa::net
