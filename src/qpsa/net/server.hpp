// The accept/serve/stop loop both fleet daemons (aggregator,
// ingest_server) run on.
//
// A frame_server owns the listener, an accept thread that polls its stop
// flag every 50 ms, and one handler thread per connection (finished ones
// are reaped on the next accept).  Each connection's serve loop applies
// the rules every daemon shares:
//
//   * hello newer than net_protocol_version -> error frame, then close;
//   * bye -> close;
//   * net_error (timeout past the per-connection deadline, vanished
//     peer, stop()) or wire_error (corrupt stream) -> drop the connection;
//   * any other frame -> the daemon's handler; a type the handler does
//     not serve gets an error frame and the connection keeps serving.
//
// stop() sets the flag, joins the accept thread, shutdown()s every
// connection (waking a handler blocked in poll/recv, which then closes
// its own conn) and joins the handlers, then closes the listener -- so
// it returns promptly even while a client holds an idle connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qpsa/net/socket.hpp"

namespace qpsa::net {

/// A daemon's handler for one frame the shared rules leave to it.  Runs
/// on the connection's thread; returns false for a message type the
/// daemon does not serve.  May throw net_error / wire_error, which drop
/// the connection.
using frame_handler = std::function<bool(socket_conn& conn, const frame& f)>;

class frame_server {
public:
    /// Binds `listen` now, so local() is valid before start().
    /// `conn_timeout_ms` is every connection's I/O deadline, and with it
    /// the liveness bound on a silent peer.
    frame_server(const endpoint& listen, int conn_timeout_ms,
                 frame_handler handler);
    ~frame_server();

    frame_server(const frame_server&) = delete;
    frame_server& operator=(const frame_server&) = delete;

    /// Begin accepting connections (idempotent).
    void start();
    /// Stop accepting, close every connection, join all threads.
    void stop();

    /// The bound address (ephemeral TCP ports resolved).
    const endpoint& local() const noexcept { return listener_.local(); }

    std::uint64_t connections_accepted() const noexcept {
        return accepted_.load(std::memory_order_relaxed);
    }
    /// Frame bytes received over every connection (header, type byte and
    /// body).
    std::uint64_t bytes_received() const noexcept {
        return bytes_received_.load(std::memory_order_relaxed);
    }

private:
    struct connection {
        socket_conn conn;
        std::thread thread;
    };

    void accept_loop();
    void serve(socket_conn& conn);
    /// Join and drop finished connections; caller holds conns_mu_.
    void reap_locked();

    int conn_timeout_ms_;
    frame_handler handler_;
    listener listener_;

    std::mutex conns_mu_;
    std::vector<std::unique_ptr<connection>> conns_;

    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> bytes_received_{0};
    std::thread accept_thread_;
};

}  // namespace qpsa::net
