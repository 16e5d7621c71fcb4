// Ingest server: one shard process's front door.  Owns a
// session_manager and exposes it over qpsa::net frames -- admits,
// beat batches, drain barriers, stats, and both ends of a live session
// migration.
//
// Identity across the socket: clients speak *global* session ids (the
// dense fleet-wide ids an in-process shard_router would have assigned).
// Each admitted session is given its global id (cfg.global_id), so its
// journal records and the manager's snapshot rows already carry it --
// as on a shard of an in-process router, which is what makes the
// aggregated multi-process snapshot bit-identical to the single-process
// merge.  The server keeps only the global -> local map that routes
// beat batches to manager slots.
//
// Configs never cross the socket (they hold live process resources; see
// session_state.hpp).  An admit carries a config *token*, resolved
// through the make_config callback -- the application's config registry.
// Migration ships the token with the state so the destination shard
// resolves the same config locally.
//
// Determinism: the manager drains only on a flush frame, so a client's
// ingest -> flush -> query sequence is a program-order pipeline and
// (with threads = 1) bit-identical to the same sequence against an
// in-process manager.
//
// Connections run on a frame_server (see server.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "qpsa/net/server.hpp"
#include "qpsa/service/session_manager.hpp"

namespace qpsa::net {

struct ingest_server_options {
    endpoint listen;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    /// The owned manager's options (threads = 1 for deterministic runs).
    service::service_options service;
    /// Per-connection I/O deadline (the server's); also the liveness
    /// bound on idle client connections.
    int io_timeout_ms = 5000;
};

class ingest_server {
public:
    /// `make_config` resolves a config token (+ patient id) to a full
    /// session_config -- the application's config registry.  Called on
    /// connection-handler threads; must be thread-safe.
    ingest_server(
        ingest_server_options opt,
        std::function<service::session_config(std::string_view token,
                                              std::string_view patient_id)>
            make_config,
        service::plan_cache* cache = nullptr);

    ingest_server(const ingest_server&) = delete;
    ingest_server& operator=(const ingest_server&) = delete;

    void start() { server_.start(); }
    void stop() { server_.stop(); }

    const endpoint& local() const noexcept { return server_.local(); }
    /// The owned manager; its fleet() rows carry global ids (what
    /// stats_reply ships and publishers should ship).
    service::session_manager& manager() noexcept { return mgr_; }

    std::uint64_t beats_ingested() const noexcept {
        return beats_in_.load(std::memory_order_relaxed);
    }
    std::uint64_t beats_rejected() const noexcept {
        return beats_rejected_.load(std::memory_order_relaxed);
    }
    std::uint64_t admits() const noexcept {
        return admits_.load(std::memory_order_relaxed);
    }
    std::uint64_t flushes() const noexcept {
        return flushes_.load(std::memory_order_relaxed);
    }

private:
    /// admit, beat_batch, flush, migrate_out, adopt, session_query,
    /// stats_query and heartbeat; frame_server runs the rest.
    bool handle(socket_conn& conn, const frame& f);

    /// Local id for a global id; ~0 when unknown/not resident.
    std::uint64_t local_of(std::uint64_t global_id) const;

    void handle_admit(socket_conn& conn, const frame& f);
    void handle_beat_batch(const frame& f);
    void handle_flush(socket_conn& conn);
    void handle_migrate_out(socket_conn& conn, const frame& f);
    void handle_adopt(socket_conn& conn, const frame& f);
    void handle_session_query(socket_conn& conn, const frame& f);

    std::function<service::session_config(std::string_view,
                                          std::string_view)>
        make_config_;
    service::session_manager mgr_;

    /// Routing maps; guarded by map_mu_ (admit/adopt/migrate mutate,
    /// beat batches read).  A migrated-out id leaves global_to_local_.
    mutable std::mutex map_mu_;
    std::unordered_map<std::uint64_t, std::uint64_t> global_to_local_;
    std::unordered_map<std::uint64_t, std::string> token_of_global_;

    std::atomic<std::uint64_t> beats_in_{0};
    std::atomic<std::uint64_t> beats_rejected_{0};
    std::atomic<std::uint64_t> admits_{0};
    std::atomic<std::uint64_t> flushes_{0};
    /// Last member: its threads use the ones above, so it stops first.
    frame_server server_;
};

}  // namespace qpsa::net
