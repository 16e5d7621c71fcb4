#include "qpsa/journal/report_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "qpsa/util/crc32.hpp"

namespace qpsa::journal {

namespace {

/// Staging buffer size: records accumulate here and are written in one
/// syscall when it fills (or on flush/close).
constexpr std::size_t staging_capacity = std::size_t{1} << 18;

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
    throw journal_error("journal: " + what + " " + path + ": " +
                        std::strerror(errno));
}

}  // namespace

report_writer::report_writer(std::string path, writer_options opt)
    : path_(std::move(path)), opt_(opt), arena_(staging_capacity) {
    QPSA_EXPECTS(opt_.shard_count >= 1 &&
                 opt_.shard_index < opt_.shard_count);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) throw_errno("cannot open", path_);
    staging_ = arena_.alloc<std::uint8_t>(staging_capacity);

    // The header goes to disk immediately: even a crash before the first
    // record leaves a scannable (empty) journal behind.
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    w.u32(journal_magic);
    w.u16(journal_wire_version);
    w.u16(0);  // reserved
    w.u32(opt_.shard_index);
    w.u32(opt_.shard_count);
    write_raw(body_);
}

report_writer::~report_writer() {
    try {
        close();
    } catch (...) {
        // Destructors must not throw; an incomplete close leaves a torn
        // tail, which the reader is built to recover from.
    }
}

void report_writer::append_session_meta(const session_meta& meta) {
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    w.u64(meta.session_id);
    w.u64(meta.seed);
    w.f64(meta.monitor.window_seconds);
    w.f64(meta.monitor.hop_seconds);
    w.u64(meta.monitor.min_beats);
    w.u64(meta.monitor.history_limit);
    w.boolean(meta.governed);
    w.enumerator(meta.initial_mode);
    w.str(meta.patient_id);
    put_record(record_type::session_meta);
}

void report_writer::append_beat(std::uint64_t session_id, real beat_time_s,
                                real rr_s) {
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    w.u64(session_id);
    w.f64(beat_time_s);
    w.f64(rr_s);
    put_record(record_type::beat);
}

void report_writer::append_beats(std::span<const beat_event> beats) {
    // Beats are framed (header + CRC) into a stack block *outside* the
    // writer mutex, so the per-record work runs concurrently across
    // workers; the critical section is one block memcpy into staging.
    constexpr std::size_t framed = journal_frame_bytes + 25;  // 1 + 24 body
    constexpr std::size_t max_batch = 256;
    while (!beats.empty()) {
        const std::size_t n = std::min(beats.size(), max_batch);
        std::uint8_t block[max_batch * framed];
        std::size_t used = 0;
        for (const beat_event& b : beats.first(n)) {
            std::uint8_t* frame = block + used;
            std::uint8_t* payload = frame + journal_frame_bytes;
            // The beat record body, field by field as append_beat's
            // byte_writer lays it out, stored straight into the block.
            payload[0] = static_cast<std::uint8_t>(record_type::beat);
            service::store_le(payload + 1, b.session_id);
            service::store_le(payload + 9,
                              std::bit_cast<std::uint64_t>(b.beat_time_s));
            service::store_le(payload + 17,
                              std::bit_cast<std::uint64_t>(b.rr_s));
            const std::uint32_t len = 25;
            service::store_le(frame, len);
            service::store_le(frame + 4, util::crc32({payload, len}));
            used += framed;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            put_framed_block({block, used}, n);
        }
        beats = beats.subspan(n);
    }
}

void report_writer::append_report(const report_event& ev) {
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    w.u64(ev.session_id);
    service::write_report(w, ev.report);
    w.f64(ev.battery_fraction);
    w.u64(ev.mode_switches);
    w.enumerator(ev.mode_after);
    put_record(record_type::report);
}

void report_writer::append_migration(const migration_event& ev) {
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    w.u64(ev.session_id);
    w.enumerator(ev.direction);
    w.f64(ev.battery_fraction);
    w.u64(ev.mode_switches);
    w.enumerator(ev.mode_after);
    put_record(record_type::migration);
}

void report_writer::append_stats_delta(const service::fleet_snapshot& delta) {
    std::lock_guard<std::mutex> lock(mu_);
    service::byte_writer w = begin_record();
    delta.write(w);
    put_record(record_type::stats_delta);
}

service::byte_writer report_writer::begin_record() {
    body_.clear();
    return service::byte_writer(body_);
}

void report_writer::put_record(record_type type) {
    QPSA_EXPECTS(!closed_);
    const std::span<const std::uint8_t> body = body_;
    const auto type_b = static_cast<std::uint8_t>(type);
    const auto len = static_cast<std::uint32_t>(1 + body.size());
    QPSA_EXPECTS(len <= journal_max_record_bytes);
    std::uint32_t crc = util::crc32({&type_b, 1});
    crc = util::crc32_append(crc, body);

    const std::size_t need = journal_frame_bytes + len;
    if (staged_ + need > staging_.size()) flush_locked(true);

    std::uint8_t frame[journal_frame_bytes + 1];
    service::store_le(frame, len);
    service::store_le(frame + 4, crc);
    frame[8] = type_b;

    if (need <= staging_.size()) {
        std::memcpy(staging_.data() + staged_, frame, sizeof frame);
        if (!body.empty())
            std::memcpy(staging_.data() + staged_ + sizeof frame, body.data(),
                        body.size());
        staged_ += need;
    } else {
        // Oversized record (a stats_delta from a gigantic fleet): staging
        // is already flushed, bypass it.
        write_raw({frame, sizeof frame});
        write_raw(body);
    }
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(need, std::memory_order_relaxed);
}

void report_writer::put_framed_block(std::span<const std::uint8_t> block,
                                     std::uint64_t records) {
    QPSA_EXPECTS(!closed_);
    if (staged_ + block.size() > staging_.size()) flush_locked(true);
    if (block.size() <= staging_.size()) {
        std::memcpy(staging_.data() + staged_, block.data(), block.size());
        staged_ += block.size();
    } else {
        write_raw(block);
    }
    appends_.fetch_add(records, std::memory_order_relaxed);
    bytes_.fetch_add(block.size(), std::memory_order_relaxed);
}

void report_writer::write_raw(std::span<const std::uint8_t> bytes) {
    const std::uint8_t* p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write failed on", path_);
        }
        p += n;
        left -= static_cast<std::size_t>(n);
        unsynced_ += static_cast<std::size_t>(n);
    }
}

void report_writer::flush_locked(bool allow_cadence_sync) {
    if (staged_ != 0) {
        write_raw(staging_.first(staged_));
        staged_ = 0;
    }
    if (allow_cadence_sync && opt_.fsync_interval_bytes != 0 &&
        unsynced_ >= opt_.fsync_interval_bytes)
        sync_locked();
}

void report_writer::sync_locked() {
    if (::fsync(fd_) != 0) throw_errno("fsync failed on", path_);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    unsynced_ = 0;
}

void report_writer::flush(bool sync) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    flush_locked(false);
    if (sync) sync_locked();
}

void report_writer::close() {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    flush_locked(false);

    // Footer counters exclude the footer itself (put_record below bumps
    // them after the body is encoded); the fsync count *includes* the
    // final sync issued right after, so a graceful close leaves the live
    // counters equal to what a recovery scan reconstructs.
    service::byte_writer w = begin_record();
    w.u64(appends_.load(std::memory_order_relaxed));
    w.u64(bytes_.load(std::memory_order_relaxed));
    w.u64(fsyncs_.load(std::memory_order_relaxed) + 1);
    put_record(record_type::footer);
    flush_locked(false);
    sync_locked();

    closed_ = true;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_errno("close failed on", path_);
}

}  // namespace qpsa::journal
