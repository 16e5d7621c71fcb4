// qpsa::net message framing -- the cross-process envelope every fleet
// daemon speaks, over TCP or Unix-domain stream sockets.
//
// Frame layout (encoding rules: service/byte_codec.hpp):
//
//   u32 magic "QPNT"; u32 len; u32 crc32(payload);
//   payload = u8 msg_type + body   (len counts the payload)
//
// The CRC covers the payload only (the header is validated by magic and
// length bounds), mirroring the journal record frame, so one corruption
// policy covers both: anything that does not checksum throws
// service::wire_error loudly -- a transport must never silently drop or
// truncate fleet data.
//
// Protocol versioning: the hello body carries net_protocol_version; a
// peer accepts every version up to its own and rejects newer ones with
// an error frame, the same accept-older/reject-newer rule the snapshot
// and journal wire formats follow.
//
// Message bodies (snapshot/state blobs are the existing fleet_snapshot /
// session_runtime_state encodings embedded verbatim, so the socket layer
// adds framing without re-encoding):
//
//   hello          u16 protocol_version; u8 role (1 = snapshot
//                  publisher, 2 = ingest client, 3 = query client);
//                  u32 shard_index; u32 shard_count
//   heartbeat      (empty) -- liveness between snapshots/batches
//   snapshot       u32 shard_index; fleet_snapshot::serialize() bytes
//   admit          u64 global_id; u64 seed; str token; str patient_id
//   beat_batch     u32 count; count x (u64 global_id; f64 beat_time_s;
//                  f64 rr_s)
//   flush          (empty) -- drain barrier; peer drains and acks
//   flush_ack      u64 windows_completed (manager lifetime total)
//   stats_query    (empty)
//   stats_reply    fleet_snapshot::serialize() bytes (global-id rows)
//   migrate_out    u64 global_id
//   migrate_state  str token; session_runtime_state::serialize() bytes
//   adopt          str token; session_runtime_state::serialize() bytes
//   adopt_ack      u64 global_id
//   session_query  u64 global_id
//   session_state  bool found; when found: u64 global_id;
//                  u64 windows_completed; u32 switch_count; switch_count
//                  x (u64 window_index, u64 mode_index);
//                  serialize_reports() bytes
//   error          str message (utf-8)
//   bye            (empty) -- clean shutdown of one connection
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qpsa/service/byte_codec.hpp"

namespace qpsa::net {

inline constexpr std::uint32_t frame_magic = 0x544E5051;  // "QPNT" LE
inline constexpr std::uint16_t net_protocol_version = 1;
inline constexpr std::size_t frame_header_bytes = 12;  ///< magic+len+crc
/// Payloads larger than this are corruption, not data (the largest real
/// payload is a migrating session's full state, megabytes at most).
inline constexpr std::uint32_t frame_max_payload_bytes = 1u << 26;
/// Encoded size of one beat_batch entry (u64 + f64 + f64).
inline constexpr std::size_t beat_batch_entry_bytes = 24;
/// Context prefix of every wire_error a frame or body decode throws.
inline constexpr const char* frame_context = "net frame";

enum class msg_type : std::uint8_t {
    hello = 1,
    heartbeat = 2,
    snapshot = 3,
    admit = 4,
    beat_batch = 5,
    flush = 6,
    flush_ack = 7,
    stats_query = 8,
    stats_reply = 9,
    migrate_out = 10,
    migrate_state = 11,
    adopt = 12,
    adopt_ack = 13,
    session_query = 14,
    session_state = 15,
    error = 16,
    bye = 17,
};

/// Peer roles announced in the hello body.
enum class peer_role : std::uint8_t {
    publisher = 1,  ///< ships fleet snapshots to an aggregator
    ingest = 2,     ///< routes admits/beats to an ingest server
    query = 3,      ///< stats/session queries only
};

/// One decoded frame: the type byte plus the body it framed.
struct frame {
    msg_type type = msg_type::error;
    std::vector<std::uint8_t> body;
};

/// Frame a payload: header + u8 type + body, ready for one send.
std::vector<std::uint8_t> encode_frame(msg_type type,
                                       std::span<const std::uint8_t> body);

/// Validate a frame header (magic, length bounds) and return the payload
/// length (type byte included).  Throws service::wire_error.
std::uint32_t decode_frame_header(std::span<const std::uint8_t> header);

/// CRC-check a received payload against the header's crc and split it
/// into type + body.  Throws service::wire_error on mismatch or on an
/// unknown message type.
frame decode_frame_payload(std::uint32_t crc,
                           std::span<const std::uint8_t> payload);

/// Convenience for tests and in-memory use: decode one complete frame
/// from a contiguous buffer (must contain exactly one frame).
frame decode_frame(std::span<const std::uint8_t> bytes);

/// Body of a hello frame announcing `role` for one shard of a fleet.
std::vector<std::uint8_t> hello_body(peer_role role, std::uint32_t shard_index,
                                     std::uint32_t shard_count);

/// Body of an error frame.
std::vector<std::uint8_t> error_body(std::string_view message);

}  // namespace qpsa::net
