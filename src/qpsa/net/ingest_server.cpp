#include "qpsa/net/ingest_server.hpp"

#include "qpsa/service/session_state.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::net {

using service::byte_reader;
using service::byte_writer;

namespace {

void send_error(socket_conn& conn, std::string_view what) {
    conn.send_frame(msg_type::error, error_body(what));
}

}  // namespace

ingest_server::ingest_server(
    ingest_server_options opt,
    std::function<service::session_config(std::string_view,
                                          std::string_view)>
        make_config,
    service::plan_cache* cache)
    : make_config_(std::move(make_config)),
      mgr_(opt.service, cache),
      server_(opt.listen, opt.io_timeout_ms,
              [this](socket_conn& conn, const frame& f) {
                  return handle(conn, f);
              }) {
    QPSA_EXPECTS(make_config_ != nullptr);
    QPSA_EXPECTS(opt.shard_index < opt.shard_count);
}

std::uint64_t ingest_server::local_of(std::uint64_t global_id) const {
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto it = global_to_local_.find(global_id);
    return it == global_to_local_.end() ? ~std::uint64_t{0} : it->second;
}

bool ingest_server::handle(socket_conn& conn, const frame& f) {
    switch (f.type) {
        case msg_type::heartbeat:
            return true;
        case msg_type::admit:
            handle_admit(conn, f);
            return true;
        case msg_type::beat_batch:
            handle_beat_batch(f);
            return true;
        case msg_type::flush:
            handle_flush(conn);
            return true;
        case msg_type::stats_query:
            conn.send_frame(msg_type::stats_reply, mgr_.fleet().serialize());
            return true;
        case msg_type::migrate_out:
            handle_migrate_out(conn, f);
            return true;
        case msg_type::adopt:
            handle_adopt(conn, f);
            return true;
        case msg_type::session_query:
            handle_session_query(conn, f);
            return true;
        default:
            return false;
    }
}

void ingest_server::handle_admit(socket_conn& conn, const frame& f) {
    byte_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    const std::uint64_t seed = r.u64();
    const std::string token = r.str();
    const std::string patient = r.str();
    r.expect_exhausted();

    service::session_config cfg = make_config_(token, patient);
    cfg.patient_id = patient;
    cfg.seed = seed;
    cfg.global_id = global_id;

    std::lock_guard<std::mutex> lock(map_mu_);
    if (global_to_local_.count(global_id)) {
        send_error(conn, "duplicate admit for global id");
        return;
    }
    global_to_local_[global_id] = mgr_.add_session(std::move(cfg));
    token_of_global_[global_id] = token;
    admits_.fetch_add(1, std::memory_order_relaxed);
}

void ingest_server::handle_beat_batch(const frame& f) {
    // The whole batch is checked before any beat is applied, so a
    // malformed batch is rejected as a unit.
    byte_reader r(f.body, frame_context);
    const std::uint32_t count = r.count<std::uint32_t>(beat_batch_entry_bytes);
    byte_reader beats(r.bytes(std::size_t{count} * beat_batch_entry_bytes),
                      frame_context);
    r.expect_exhausted();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t global_id = beats.u64();
        const real t = beats.f64();
        const real rr = beats.f64();
        const std::uint64_t local = local_of(global_id);
        if (local != ~std::uint64_t{0} && mgr_.ingest(local, t, rr))
            beats_in_.fetch_add(1, std::memory_order_relaxed);
        else
            beats_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
}

void ingest_server::handle_flush(socket_conn& conn) {
    mgr_.drain_all();
    flushes_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> body;
    byte_writer(body).u64(mgr_.fleet().windows);
    conn.send_frame(msg_type::flush_ack, body);
}

void ingest_server::handle_migrate_out(socket_conn& conn, const frame& f) {
    byte_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    r.expect_exhausted();

    std::string token;
    std::uint64_t local;
    {
        std::lock_guard<std::mutex> lock(map_mu_);
        const auto it = global_to_local_.find(global_id);
        if (it == global_to_local_.end()) {
            send_error(conn, "migrate_out: unknown global id");
            return;
        }
        local = it->second;
        token = token_of_global_.at(global_id);
        // Retire the id from this shard's routing *before* extraction:
        // a beat batch racing the migration sees "unknown" and counts a
        // reject, never a torn session.
        global_to_local_.erase(it);
    }
    const service::extracted_session es = mgr_.extract_session(local);

    std::vector<std::uint8_t> body;
    byte_writer w(body);
    w.str(token);
    w.bytes(es.state.serialize());
    conn.send_frame(msg_type::migrate_state, body);
}

void ingest_server::handle_adopt(socket_conn& conn, const frame& f) {
    byte_reader r(f.body, frame_context);
    const std::string token = r.str();
    const service::session_runtime_state st =
        service::session_runtime_state::deserialize(r.rest());

    service::session_config cfg = make_config_(token, st.patient_id);
    cfg.patient_id = st.patient_id;

    std::lock_guard<std::mutex> lock(map_mu_);
    if (global_to_local_.count(st.global_id)) {
        send_error(conn, "adopt: global id already resident");
        return;
    }
    global_to_local_[st.global_id] = mgr_.adopt_session(std::move(cfg), st);
    token_of_global_[st.global_id] = token;

    std::vector<std::uint8_t> body;
    byte_writer(body).u64(st.global_id);
    conn.send_frame(msg_type::adopt_ack, body);
}

void ingest_server::handle_session_query(socket_conn& conn, const frame& f) {
    byte_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    r.expect_exhausted();

    const std::uint64_t local = local_of(global_id);
    std::vector<std::uint8_t> body;
    byte_writer w(body);
    w.boolean(local != ~std::uint64_t{0});
    if (local != ~std::uint64_t{0}) {
        const service::session& s = mgr_.at(local);
        w.u64(global_id);
        w.u64(s.windows_completed());
        const std::span<const service::mode_switch_event> log =
            s.switch_log();
        w.u32(static_cast<std::uint32_t>(log.size()));
        for (const service::mode_switch_event& e : log) {
            w.u64(e.window_index);
            w.u64(static_cast<std::uint64_t>(e.mode_index));
        }
        w.bytes(service::serialize_reports(s.reports()));
    }
    conn.send_frame(msg_type::session_state, body);
}

}  // namespace qpsa::net
