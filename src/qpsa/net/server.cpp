#include "qpsa/net/server.hpp"

namespace qpsa::net {

frame_server::frame_server(const endpoint& listen, int conn_timeout_ms,
                           frame_handler handler)
    : conn_timeout_ms_(conn_timeout_ms),
      handler_(std::move(handler)),
      listener_(listen) {}

frame_server::~frame_server() {
    try {
        stop();
    } catch (...) {
        // Destructor must not throw; stop() can only fail in a join.
    }
}

void frame_server::start() {
    if (accept_thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void frame_server::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::unique_ptr<connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns.swap(conns_);
    }
    // shutdown() wakes each handler's blocked poll/recv; the handler
    // then EOFs/fails out and closes its own conn (single-owner close,
    // so stop never races a handler mid-recv).
    for (auto& c : conns) c->conn.shutdown();
    for (auto& c : conns)
        if (c->thread.joinable()) c->thread.join();
    listener_.close();
}

void frame_server::accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::optional<socket_conn> accepted;
        try {
            accepted = listener_.accept(/*timeout_ms=*/50, conn_timeout_ms_);
        } catch (const net_error&) {
            // Listener closed under us during stop(); or a transient
            // accept failure -- either way, re-check the stop flag.
            continue;
        }
        if (!accepted) continue;
        accepted_.fetch_add(1, std::memory_order_relaxed);

        std::lock_guard<std::mutex> lock(conns_mu_);
        reap_locked();
        auto c = std::make_unique<connection>();
        c->conn = std::move(*accepted);
        connection* raw = c.get();
        c->thread = std::thread([this, raw] { serve(raw->conn); });
        conns_.push_back(std::move(c));
    }
}

void frame_server::reap_locked() {
    std::erase_if(conns_, [](const std::unique_ptr<connection>& c) {
        if (c->conn.valid()) return false;
        if (c->thread.joinable()) c->thread.join();
        return true;
    });
}

void frame_server::serve(socket_conn& conn) {
    try {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::optional<frame> f = conn.recv_frame();
            if (!f) break;  // clean EOF
            bytes_received_.fetch_add(f->body.size() + frame_header_bytes + 1,
                                      std::memory_order_relaxed);
            if (f->type == msg_type::bye) break;
            if (f->type == msg_type::hello) {
                service::byte_reader r(f->body, frame_context);
                if (r.u16() > net_protocol_version) {
                    conn.send_frame(msg_type::error,
                                    error_body("protocol version too new"));
                    break;
                }
            } else if (!handler_(conn, *f)) {
                conn.send_frame(msg_type::error,
                                error_body("unexpected message type"));
            }
        }
    } catch (const net_error&) {
        // Silent past the deadline, vanished peer, or our own stop()
        // shutting the socket down: drop the connection (a live
        // publisher or client redials).
    } catch (const service::wire_error&) {
        // Corrupt frame: this peer's stream is unusable; drop it.
    }
    conn.close();
}

}  // namespace qpsa::net
