#include "qpsa/net/aggregator.hpp"

namespace qpsa::net {

aggregator::aggregator(aggregator_options opt)
    : server_(opt.listen, opt.heartbeat_timeout_ms,
              [this](socket_conn& conn, const frame& f) {
                  return handle(conn, f);
              }) {}

bool aggregator::handle(socket_conn& conn, const frame& f) {
    switch (f.type) {
        case msg_type::snapshot: {
            service::byte_reader r(f.body, frame_context);
            const std::uint32_t shard = r.u32();
            service::fleet_snapshot snap =
                service::fleet_snapshot::deserialize(r.rest());
            std::lock_guard<std::mutex> lock(snap_mu_);
            latest_[shard] = std::move(snap);
            snapshots_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        case msg_type::heartbeat:
            heartbeats_.fetch_add(1, std::memory_order_relaxed);
            return true;
        case msg_type::stats_query:
            conn.send_frame(msg_type::stats_reply, merged().serialize());
            return true;
        default:
            return false;
    }
}

service::fleet_snapshot aggregator::merged() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    service::fleet_snapshot out;
    bool first = true;
    for (const auto& [shard, snap] : latest_) {
        if (first) {
            out = snap;
            first = false;
        } else {
            out += snap;
        }
    }
    return out;
}

std::size_t aggregator::shards_reporting() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return latest_.size();
}

}  // namespace qpsa::net
