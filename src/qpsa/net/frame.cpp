#include "qpsa/net/frame.hpp"

#include "qpsa/util/common.hpp"
#include "qpsa/util/crc32.hpp"

namespace qpsa::net {

using service::byte_reader;
using service::byte_writer;

namespace {

bool known_type(std::uint8_t t) {
    return t >= static_cast<std::uint8_t>(msg_type::hello) &&
           t <= static_cast<std::uint8_t>(msg_type::bye);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(msg_type type,
                                       std::span<const std::uint8_t> body) {
    const std::size_t payload = 1 + body.size();
    QPSA_EXPECTS(payload <= frame_max_payload_bytes);

    std::vector<std::uint8_t> out;
    out.reserve(frame_header_bytes + payload);
    byte_writer w(out);
    w.u32(frame_magic);
    w.u32(static_cast<std::uint32_t>(payload));
    const auto type_b = static_cast<std::uint8_t>(type);
    w.u32(util::crc32_append(util::crc32({&type_b, 1}), body));
    w.u8(type_b);
    w.bytes(body);
    return out;
}

std::uint32_t decode_frame_header(std::span<const std::uint8_t> header) {
    byte_reader r(header, frame_context);
    if (header.size() < frame_header_bytes) r.fail("short header");
    if (r.u32() != frame_magic) r.fail("bad magic");
    const std::uint32_t len = r.u32();
    if (len == 0) r.fail("zero-length payload");
    if (len > frame_max_payload_bytes) r.fail("oversized payload");
    return len;
}

frame decode_frame_payload(std::uint32_t crc,
                           std::span<const std::uint8_t> payload) {
    byte_reader r(payload, frame_context);
    if (payload.empty()) r.fail("empty payload");
    if (util::crc32(payload) != crc) r.fail("payload crc mismatch");
    if (!known_type(payload[0])) r.fail("unknown message type");
    frame f;
    f.type = static_cast<msg_type>(payload[0]);
    f.body.assign(payload.begin() + 1, payload.end());
    return f;
}

frame decode_frame(std::span<const std::uint8_t> bytes) {
    const std::uint32_t len = decode_frame_header(bytes);
    const byte_reader r(bytes, frame_context);
    if (bytes.size() != frame_header_bytes + len)
        r.fail("frame length disagrees with buffer");
    return decode_frame_payload(service::load_le<std::uint32_t>(&bytes[8]),
                                bytes.subspan(frame_header_bytes));
}

std::vector<std::uint8_t> hello_body(peer_role role, std::uint32_t shard_index,
                                     std::uint32_t shard_count) {
    std::vector<std::uint8_t> body;
    byte_writer w(body);
    w.u16(net_protocol_version);
    w.enumerator(role);
    w.u32(shard_index);
    w.u32(shard_count);
    return body;
}

std::vector<std::uint8_t> error_body(std::string_view message) {
    std::vector<std::uint8_t> body;
    byte_writer w(body);
    w.str(message);
    return body;
}

}  // namespace qpsa::net
