#include "qpsa/journal/report_reader.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "qpsa/util/crc32.hpp"

namespace qpsa::journal {

using service::wire_error;

namespace {

using service::byte_reader;

constexpr const char* context = "journal";

session_meta decode_session_meta(byte_reader r) {
    session_meta m;
    m.session_id = r.u64();
    m.seed = r.u64();
    m.monitor.window_seconds = r.f64();
    m.monitor.hop_seconds = r.f64();
    m.monitor.min_beats = r.u64();
    m.monitor.history_limit = r.u64();
    m.governed = r.boolean();
    m.initial_mode = service::read_engine(r);
    m.patient_id = r.str();
    r.expect_exhausted();
    return m;
}

beat_event decode_beat(byte_reader r) {
    beat_event b;
    b.session_id = r.u64();
    b.beat_time_s = r.f64();
    b.rr_s = r.f64();
    r.expect_exhausted();
    return b;
}

report_event decode_report(byte_reader r) {
    report_event ev;
    ev.session_id = r.u64();
    ev.report = service::read_report(r);
    ev.battery_fraction = r.f64();
    ev.mode_switches = r.u64();
    ev.mode_after = service::read_engine(r);
    r.expect_exhausted();
    return ev;
}

migration_event decode_migration(byte_reader r) {
    migration_event ev;
    ev.session_id = r.u64();
    ev.direction = r.enumerator(migration_direction::in, "migration direction");
    ev.battery_fraction = r.f64();
    ev.mode_switches = r.u64();
    ev.mode_after = service::read_engine(r);
    r.expect_exhausted();
    return ev;
}

journal_footer decode_footer(byte_reader r) {
    journal_footer f;
    f.records = r.u64();
    f.bytes = r.u64();
    f.fsyncs = r.u64();
    r.expect_exhausted();
    return f;
}

}  // namespace

journal_scan scan_journal_bytes(std::span<const std::uint8_t> bytes) {
    journal_scan scan;
    if (bytes.size() < journal_header_bytes) {
        // A crash before (or during) the header write: nothing usable,
        // but nothing provably corrupt either.
        scan.torn_tail = !bytes.empty();
        return scan;
    }
    byte_reader hdr(bytes.first(journal_header_bytes), context);
    if (hdr.u32() != journal_magic) hdr.fail("bad magic");
    const std::uint16_t version = hdr.u16();
    if (version == 0 || version > journal_wire_version)
        hdr.fail("unknown version " + std::to_string(version));
    hdr.u16();  // reserved
    scan.shard_index = hdr.u32();
    scan.shard_count = hdr.u32();
    if (scan.shard_count == 0 || scan.shard_index >= scan.shard_count)
        hdr.fail("invalid shard header");
    scan.header_present = true;

    std::size_t pos = journal_header_bytes;
    bool saw_footer = false;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < journal_frame_bytes) {
            scan.torn_tail = true;  // partial frame header
            break;
        }
        const std::uint32_t len = service::load_le<std::uint32_t>(&bytes[pos]);
        const std::uint32_t crc =
            service::load_le<std::uint32_t>(&bytes[pos + 4]);
        if (len == 0 || len > journal_max_record_bytes)
            throw wire_error("journal: bad record length " +
                             std::to_string(len));
        if (bytes.size() - pos - journal_frame_bytes < len) {
            scan.torn_tail = true;  // record extends past EOF
            break;
        }
        const auto payload = bytes.subspan(pos + journal_frame_bytes, len);
        if (util::crc32(payload) != crc)
            throw wire_error("journal: record CRC mismatch at byte " +
                             std::to_string(pos));
        if (saw_footer)
            throw wire_error("journal: record after footer");

        byte_reader body(payload.subspan(1), context);
        switch (static_cast<record_type>(payload[0])) {
            case record_type::session_meta:
                scan.sessions.push_back(decode_session_meta(body));
                break;
            case record_type::beat:
                scan.beats.push_back(decode_beat(body));
                break;
            case record_type::report:
                scan.reports.push_back(decode_report(body));
                break;
            case record_type::stats_delta:
                // Re-merge exactly as fleet_stats::merge did live: same
                // deltas, same order, same operator+= -- so every double
                // sum re-associates identically.
                scan.stats += service::fleet_snapshot::deserialize(body.rest());
                break;
            case record_type::migration:
                scan.migrations.push_back(
                    {decode_migration(body), scan.reports.size()});
                break;
            case record_type::footer:
                scan.footer = decode_footer(body);
                saw_footer = true;
                break;
            default:
                throw wire_error("journal: unknown record type " +
                                 std::to_string(payload[0]));
        }
        ++scan.records;
        scan.record_bytes += journal_frame_bytes + len;
        pos += journal_frame_bytes + len;
    }

    if (saw_footer) {
        constexpr std::uint64_t footer_frame =
            journal_frame_bytes + 1 + 24;  // frame + type + 3 x u64
        if (scan.footer.records != scan.records - 1 ||
            scan.footer.bytes != scan.record_bytes - footer_frame)
            throw wire_error(
                "journal: footer counters disagree with scan");
        scan.clean_close = !scan.torn_tail;
    }
    return scan;
}

journal_scan scan_journal(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw journal_error("journal: cannot read " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (in.bad()) throw journal_error("journal: read failed on " + path);
    return scan_journal_bytes(bytes);
}

std::vector<std::string> journal_files(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        throw journal_error("journal: no such directory " + dir);
    std::vector<std::string> files;
    for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
        if (e.is_regular_file() &&
            e.path().extension() == journal_file_extension)
            files.push_back(e.path().string());
    }
    if (ec) throw journal_error("journal: cannot list " + dir);
    std::sort(files.begin(), files.end());
    return files;
}

service::fleet_snapshot rebuild_shard_snapshot(const journal_scan& scan) {
    service::fleet_snapshot snap = scan.stats;

    // Per-session columns, assembled exactly like session_manager::fleet()
    // assembles the live ones: sessions in id order, state taken from the
    // last journaled post-window record (battery and governor state only
    // change at window boundaries, so "last report" == "live now").
    // Migration reshapes that picture: a session whose last migration is
    // an "out" has left this shard (the destination's log reports it); an
    // "in" checkpoint is its state until a newer report, and a session
    // that left and came back carries a second meta, so metas dedupe.
    std::unordered_map<std::uint64_t, const report_event*> last;
    std::unordered_map<std::uint64_t, std::uint64_t> last_index;
    last.reserve(scan.sessions.size());
    for (std::size_t i = 0; i < scan.reports.size(); ++i) {
        const report_event& r = scan.reports[i];
        last[r.session_id] = &r;
        last_index[r.session_id] = i;
    }
    std::unordered_map<std::uint64_t, const journal_scan::scanned_migration*>
        last_mig;
    for (const auto& m : scan.migrations) {
        last_mig[m.event.session_id] = &m;
        if (m.event.direction == migration_direction::in)
            ++snap.sessions_migrated_in;
        else
            ++snap.sessions_migrated_out;
    }
    std::unordered_map<std::uint64_t, bool> seen;
    for (const session_meta& m : scan.sessions) {
        if (seen[m.session_id]) continue;
        seen[m.session_id] = true;

        const auto it = last.find(m.session_id);
        const report_event* lr = it != last.end() ? it->second : nullptr;
        std::uint64_t switches = lr != nullptr ? lr->mode_switches : 0;
        real fraction = lr != nullptr ? lr->battery_fraction : 1.0;
        core::engine_class mode =
            lr != nullptr ? lr->mode_after : m.initial_mode;

        if (const auto mig_it = last_mig.find(m.session_id);
            mig_it != last_mig.end()) {
            const journal_scan::scanned_migration& mig = *mig_it->second;
            // A tombstone never drains, so no report can follow an "out".
            if (mig.event.direction == migration_direction::out) continue;
            // "in": the checkpoint stands until a report postdates it.
            const bool report_after =
                lr != nullptr &&
                last_index[m.session_id] >= mig.reports_before;
            if (!report_after) {
                switches = mig.event.mode_switches;
                fraction = mig.event.battery_fraction;
                mode = mig.event.mode_after;
            }
        }
        snap.mode_switches += switches;
        snap.battery_fraction_min =
            std::min(snap.battery_fraction_min, fraction);
        if (m.governed)
            snap.quality.push_back({m.session_id, switches, mode, fraction});
    }

    snap.journal_appends += scan.records;
    snap.journal_bytes += scan.record_bytes;
    if (scan.clean_close) snap.journal_fsyncs += scan.footer.fsyncs;
    if (scan.torn_tail) snap.journal_torn_tails += 1;
    return snap;
}

service::fleet_snapshot rebuild_fleet_snapshot(const std::string& dir) {
    std::vector<journal_scan> scans;
    for (const std::string& path : journal_files(dir))
        scans.push_back(scan_journal(path));

    // Headerless scans (a crash before the header landed) carry no
    // topology; they can only contribute their torn-tail count.
    std::vector<journal_scan*> shards;
    service::fleet_snapshot merged;
    bool first = true;
    for (journal_scan& s : scans) {
        if (s.header_present) {
            shards.push_back(&s);
        } else if (s.torn_tail) {
            merged.journal_torn_tails += 1;
        }
    }
    if (shards.empty()) return merged;

    // Merge in shard-index order -- the order shard_router::fleet() uses
    // -- after validating the topology is complete and consistent.
    std::sort(shards.begin(), shards.end(),
              [](const journal_scan* a, const journal_scan* b) {
                  return a->shard_index < b->shard_index;
              });
    const std::uint32_t count = shards.front()->shard_count;
    if (shards.size() != count)
        throw wire_error("journal: directory holds " +
                         std::to_string(shards.size()) +
                         " shard logs, header says " + std::to_string(count));
    for (std::size_t k = 0; k < shards.size(); ++k) {
        if (shards[k]->shard_count != count ||
            shards[k]->shard_index != static_cast<std::uint32_t>(k))
            throw wire_error("journal: inconsistent shard headers");
        if (first) {
            const std::uint64_t torn = merged.journal_torn_tails;
            merged = rebuild_shard_snapshot(*shards[k]);
            merged.journal_torn_tails += torn;
            first = false;
        } else {
            merged += rebuild_shard_snapshot(*shards[k]);
        }
    }
    return merged;
}

}  // namespace qpsa::journal
