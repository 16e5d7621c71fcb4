// The byte codec every qpsa wire format is written and read through: the
// fleet_snapshot and session_runtime_state encodings (wire.cpp), the
// journal records (qpsa/journal) and the qpsa::net frame bodies.  Each
// format documents only its field table; the rules live here:
//
//   * integers are little-endian and fixed-width (u8/u16/u32/u64);
//   * doubles travel as their raw IEEE-754 bits (u64), so every round
//     trip is lossless;
//   * a bool is one byte, 0 or 1 -- any other value is corruption;
//   * an enum is one byte, range-checked against its last enumerator;
//   * a string is a u16 length followed by that many bytes;
//   * every read is bounds-checked, an element count is checked against
//     the bytes left before anything is allocated for it, and a decoder
//     that must consume its input exactly says so (expect_exhausted).
//
// Every violation throws wire_error with the caller's context prefix
// ("journal: truncated", "net frame: trailing bytes", ...): malformed
// bytes from a disk or a peer must never fault the process.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"

namespace qpsa::service {

/// Thrown on malformed or incompatible bytes in any qpsa wire format.
class wire_error : public std::runtime_error {
public:
    explicit wire_error(const std::string& what) : std::runtime_error(what) {}
};

/// Store `v` little-endian at `p` (sizeof(T) bytes).  On little-endian
/// hosts this is one copy: GCC does not merge the per-byte loop.
template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// Load a little-endian T from `p` (sizeof(T) bytes).
template <typename T>
T load_le(const std::uint8_t* p) noexcept {
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
}

/// Appends fields to caller-owned storage; callers that encode often
/// clear and reuse one vector, so its capacity is allocated once.
class byte_writer {
public:
    explicit byte_writer(std::vector<std::uint8_t>& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) { raw(v); }
    void u32(std::uint32_t v) { raw(v); }
    void u64(std::uint64_t v) { raw(v); }
    void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    template <typename E>
    void enumerator(E v) {
        u8(static_cast<std::uint8_t>(v));
    }
    /// u16 length prefix + the bytes (contract: at most 65535 bytes).
    void str(std::string_view s);
    void bytes(std::span<const std::uint8_t> b);

private:
    template <typename T>
    void raw(T v) {
        const std::size_t at = out_.size();
        out_.resize(at + sizeof(T));
        store_le(out_.data() + at, v);
    }

    std::vector<std::uint8_t>& out_;
};

/// Bounds-checked decoder over a span; see the header comment for the
/// rules it enforces.
class byte_reader {
public:
    byte_reader(std::span<const std::uint8_t> bytes, const char* context)
        : bytes_(bytes), context_(context) {}

    std::uint8_t u8() { return take<std::uint8_t>(); }
    std::uint16_t u16() { return take<std::uint16_t>(); }
    std::uint32_t u32() { return take<std::uint32_t>(); }
    std::uint64_t u64() { return take<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }
    bool boolean();
    /// One enum byte, rejected unless <= `last` (`what` names it in the
    /// error).
    template <typename E>
    E enumerator(E last, const char* what) {
        const std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(last)) bad_value(what, v);
        return static_cast<E>(v);
    }
    /// u16 length prefix + that many bytes.
    std::string str();
    std::span<const std::uint8_t> bytes(std::size_t n);
    /// An element count of width N, rejected when the bytes left cannot
    /// hold that many entries of at least `entry_bytes` each -- a forged
    /// count must fail here, not as a huge allocation.
    template <typename N = std::uint64_t>
    N count(std::size_t entry_bytes) {
        const N n = take<N>();
        if (entry_bytes != 0 && n > remaining() / entry_bytes)
            fail("element count exceeds payload");
        return n;
    }
    /// The remaining bytes, consumed (embedded blobs).
    std::span<const std::uint8_t> rest();
    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
    /// Throws unless every byte was consumed.
    void expect_exhausted() const;

    /// Throw wire_error("<context>: <what>").
    [[noreturn]] void fail(std::string_view what) const;

private:
    template <typename T>
    T take() {
        if (remaining() < sizeof(T)) fail("truncated");
        const T v = load_le<T>(bytes_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }
    [[noreturn]] void bad_value(const char* what, std::uint8_t v) const;

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    const char* context_;
};

/// Encoded size of one window_report: 6 f64 + u8 diagnosis + 8 u64 op
/// counts + u64 beats + u8 engine.
inline constexpr std::size_t report_wire_bytes = 6 * 8 + 1 + 8 * 8 + 8 + 1;

/// op_counts: 8 x u64 (adds, muls, divs, sqrts, cmps, trigs, loads,
/// stores).
void write_ops(byte_writer& w, const counting::op_counts& ops);
counting::op_counts read_ops(byte_reader& r);

/// engine_class: one range-checked enum byte.
core::engine_class read_engine(byte_reader& r);

/// window_report: f64 t_start, t_end; f64 ulf, lf, hf, total;
/// u8 diagnosis; op_counts; u64 beats; u8 engine.
void write_report(byte_writer& w, const core::window_report& rep);
core::window_report read_report(byte_reader& r);

}  // namespace qpsa::service
