#include "qpsa/net/snapshot_publisher.hpp"

#include <chrono>

#include "qpsa/util/common.hpp"

namespace qpsa::net {

snapshot_publisher::snapshot_publisher(
    publisher_options opt, std::function<service::fleet_snapshot()> source)
    : opt_(std::move(opt)), source_(std::move(source)) {
    QPSA_EXPECTS(source_ != nullptr);
    QPSA_EXPECTS(opt_.shard_index < opt_.shard_count);
}

snapshot_publisher::~snapshot_publisher() {
    try {
        stop();
    } catch (...) {
        // Destructor must not throw; a lost bye is a torn connection the
        // aggregator already tolerates.
    }
}

void snapshot_publisher::start() {
    if (opt_.cadence_ms <= 0 || thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { run(); });
}

void snapshot_publisher::connect_locked() {
    if (conn_.valid()) return;
    conn_ = dial(opt_.aggregator, opt_.dial);
    if (ever_connected_)
        reconnects_.fetch_add(1, std::memory_order_relaxed);
    ever_connected_ = true;

    conn_.send_frame(msg_type::hello,
                     hello_body(peer_role::publisher, opt_.shard_index,
                                opt_.shard_count));
}

void snapshot_publisher::publish_locked() {
    std::vector<std::uint8_t> body;
    service::byte_writer w(body);
    w.u32(opt_.shard_index);
    source_().write(w);
    try {
        conn_.send_frame(msg_type::snapshot, body);
    } catch (...) {
        conn_.close();
        throw;
    }
    bytes_sent_.store(conn_.bytes_sent(), std::memory_order_relaxed);
    published_.fetch_add(1, std::memory_order_relaxed);
}

void snapshot_publisher::publish_now() {
    std::lock_guard<std::mutex> lock(mu_);
    connect_locked();
    publish_locked();
}

void snapshot_publisher::run() {
    while (!stop_.load(std::memory_order_relaxed)) {
        try {
            {
                std::lock_guard<std::mutex> lock(mu_);
                connect_locked();
                publish_locked();
            }
        } catch (const net_error&) {
            // Aggregator down: the dial backoff already paced us; fall
            // through to the cadence sleep and try again.
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(opt_.cadence_ms);
        while (!stop_.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void snapshot_publisher::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_.valid()) {
        try {
            conn_.send_frame(msg_type::bye, {});
        } catch (...) {
            // The aggregator treats EOF like bye.
        }
        conn_.close();
    }
}

}  // namespace qpsa::net
