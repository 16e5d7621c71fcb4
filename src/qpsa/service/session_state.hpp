// Full run-time state of one session -- the unit of live migration.
//
// When the shard map changes shape (a shard process drains, a node joins),
// a session is *extracted* from its manager -- ring contents, streaming
// window, governor hysteresis, battery charge, every counter -- shipped as
// bytes, and *adopted* by another manager, where it resumes bit-identically:
// the next beat pushed on the new shard produces exactly the spectra and
// mode switches the old shard would have produced.
//
// The session_config does NOT travel with the state.  Configs hold live
// process resources (a shared quality_controller, journal pointers) that
// cannot cross a socket; instead both sides resolve the config locally
// (in-process moves hand the config object over directly; cross-process
// migration rebuilds it from the application config registry keyed by
// config_token, see net::ingest_server) and the state overrides the parts
// that carry identity: seed and global id.
//
// RNG position note: sessions hold no mutable RNG -- the per-session seed
// (util::derive_stream_seed over the global id) IS the stream identity,
// and consumers derive sub-streams on demand.  Migrating the seed
// therefore migrates the whole random stream position.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qpsa/core/quality_governor.hpp"
#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/service/ring_buffer.hpp"
#include "qpsa/service/session.hpp"

namespace qpsa::service {

struct session_runtime_state {
    /// Fleet-wide identity: session::id() (the global id under a
    /// shard_router or ingest_server, the local slot under a bare
    /// manager that did not preset one).
    std::uint64_t global_id = 0;
    std::string patient_id;
    /// Stream seed == full RNG stream position (see header comment).
    std::uint64_t seed = 0;

    /// Undrained ingest-ring contents, oldest first.
    std::vector<beat_sample> ring;

    /// Mid-stream analysis state.
    core::monitor_state monitor;
    core::governor_state governor;
    real battery_charge_j = 0.0;

    /// Lifetime counters (cumulative; they continue on the new shard so
    /// fleet roll-ups are unchanged by the move).
    std::uint64_t beats_ingested = 0;
    std::uint64_t beats_rejected = 0;
    std::uint64_t beats_dropped = 0;
    /// Retired (overwrite rings): 0 from live fleets, still encoded so
    /// existing payloads load; adoption ignores it.
    std::uint64_t beats_overwritten = 0;
    std::uint64_t windows_completed = 0;
    /// Retired (high-water callback): 0 from live fleets, still encoded
    /// so existing payloads load; adoption ignores it.
    std::uint64_t high_water_alarms = 0;

    /// Applied governor switches (the serial-replay schedule) and the
    /// retained reports when keep_reports is on.
    std::vector<mode_switch_event> switch_log;
    std::vector<core::window_report> reports;

    bool operator==(const session_runtime_state&) const = default;

    /// Versioned binary encoding (layout: wire.cpp; byte rules:
    /// byte_codec.hpp), lossless round trip.
    std::vector<std::uint8_t> serialize() const;
    /// Parse bytes produced by serialize(); throws wire_error on
    /// malformed input.
    static session_runtime_state deserialize(std::span<const std::uint8_t> bytes);
};

/// An extracted session: the config it ran under (handed over directly
/// for in-process moves) plus its full run-time state.
struct extracted_session {
    session_config config;
    session_runtime_state state;
};

/// Stand-alone encoding of a report list (u64 count + the per-report
/// layout session_runtime_state uses) -- the payload of a session-query
/// reply, which ships a session's completed windows for cross-process
/// bit-identity checks without extracting the session.
std::vector<std::uint8_t> serialize_reports(
    std::span<const core::window_report> reports);
/// Parse bytes produced by serialize_reports(); throws wire_error.
std::vector<core::window_report> deserialize_reports(
    std::span<const std::uint8_t> bytes);

}  // namespace qpsa::service
