// Deterministic mutation sweep over every qpsa wire format: each sample
// of wire_samples.hpp is cut at every length and has every byte XORed
// with 0x01, 0x80 and 0xFF.  Every such input must either decode or
// throw service::wire_error -- never another exception, never a crash
// (the asan job runs this binary under ASan+UBSan).
//
// Journal records and net frames are checksummed, so a plain mutation
// mostly stops at the CRC.  Their sweeps therefore run a second time
// with each mutated record or frame re-sealed (CRC recomputed), which
// carries the mutation into the record and message-body decoders; the
// client-to-server frames go to a live ingest_server, whose handlers
// are the only decoders of those bodies.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <typeinfo>

#include "qpsa/journal/report_reader.hpp"
#include "qpsa/util/crc32.hpp"
#include "wire_samples.hpp"

namespace qj = qpsa::journal;
namespace qn = qpsa::net;
namespace qs = qpsa::service;
namespace qt = qpsa::test;

namespace {

constexpr std::uint8_t masks[] = {0x01, 0x80, 0xFF};

struct tally {
    std::size_t decoded = 0;
    std::size_t rejected = 0;
};

/// Run one input through `decode`; anything but success or wire_error
/// fails the test.
void feed(const std::function<void(const qt::bytes&)>& decode,
          const qt::bytes& in, const std::string& what, tally& t) {
    try {
        decode(in);
        ++t.decoded;
    } catch (const qs::wire_error&) {
        ++t.rejected;
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
    } catch (...) {
        ADD_FAILURE() << what << ": non-std exception";
    }
}

/// Every truncation and every single-byte XOR of `sample`; `reseal`
/// (optional) repairs checksums after a byte flip.
tally sweep(const char* name, const qt::bytes& sample,
            const std::function<void(const qt::bytes&)>& decode,
            const std::function<void(qt::bytes&)>& reseal = {}) {
    tally t;
    feed(decode, sample, std::string(name) + " unmutated", t);
    EXPECT_EQ(t.decoded, 1u) << name << ": the sample itself must decode";
    for (std::size_t n = 0; n < sample.size(); ++n)
        feed(decode, qt::bytes(sample.begin(), sample.begin() + n),
             std::string(name) + " cut at " + std::to_string(n), t);
    for (std::size_t i = 0; i < sample.size(); ++i) {
        for (const std::uint8_t m : masks) {
            qt::bytes in = sample;
            in[i] ^= m;
            if (reseal) reseal(in);
            feed(decode, in,
                 std::string(name) + " byte " + std::to_string(i) + " ^ " +
                     std::to_string(m),
                 t);
        }
    }
    EXPECT_EQ(t.decoded + t.rejected, 1 + 4 * sample.size()) << name;
    std::printf("%s%s: %zu inputs, %zu decoded, %zu wire_error\n", name,
                reseal ? " (re-sealed)" : "", 1 + 4 * sample.size(),
                t.decoded, t.rejected);
    return t;
}

/// Recompute the CRC of every journal record, with the record lengths
/// taken from the unmutated `layout` (a flipped length stays flipped).
void reseal_journal(qt::bytes& in, const qt::bytes& layout) {
    std::size_t pos = qj::journal_header_bytes;
    while (pos + qj::journal_frame_bytes <= layout.size()) {
        const auto len = qs::load_le<std::uint32_t>(&layout[pos]);
        const std::size_t payload = pos + qj::journal_frame_bytes;
        if (payload + len > layout.size()) break;
        if (qs::load_le<std::uint32_t>(&in[pos]) == len)
            qs::store_le(&in[pos + 4],
                         qpsa::util::crc32({in.data() + payload, len}));
        pos = payload + len;
    }
}

/// Recompute a net frame's payload CRC.
void reseal_frame(qt::bytes& in) {
    if (in.size() < qn::frame_header_bytes) return;
    qs::store_le(&in[8], qpsa::util::crc32({in.data() + qn::frame_header_bytes,
                                            in.size() - qn::frame_header_bytes}));
}

/// Offline decode of one net frame, plus its body where the body has a
/// public decoder (the client's session_state reply).
void decode_net(const qt::bytes& in) {
    const qn::frame f = qn::decode_frame(in);
    if (f.type == qn::msg_type::session_state)
        (void)qn::decode_session_state(f.body);
}

}  // namespace

TEST(WireFuzzTest, FleetSnapshot) {
    const tally t = sweep("snapshot", qt::sample_snapshot().serialize(),
                          [](const qt::bytes& in) {
                              (void)qs::fleet_snapshot::deserialize(in);
                          });
    EXPECT_GT(t.rejected, 0u);
}

TEST(WireFuzzTest, SessionRuntimeState) {
    const tally t = sweep("state", qt::sample_state().serialize(),
                          [](const qt::bytes& in) {
                              (void)qs::session_runtime_state::deserialize(in);
                          });
    EXPECT_GT(t.rejected, 0u);
}

TEST(WireFuzzTest, JournalFile) {
    const qt::bytes sample = qt::sample_journal();
    const auto decode = [](const qt::bytes& in) {
        (void)qj::rebuild_shard_snapshot(qj::scan_journal_bytes(in));
    };
    sweep("journal", sample, decode);
    const tally t = sweep("journal", sample, decode,
                          [&](qt::bytes& in) { reseal_journal(in, sample); });
    // Re-sealed flips reach the record decoders: some land in plain
    // data and decode, the enum, bool and length fields reject.
    EXPECT_GT(t.decoded, 1u);
    EXPECT_GT(t.rejected, 0u);
}

TEST(WireFuzzTest, NetFrames) {
    const qt::net_samples s = qt::sample_net_frames();
    for (const auto& [name, frame] :
         {std::pair{"hello", &s.hello}, std::pair{"admit", &s.admit},
          std::pair{"beat_batch", &s.beat_batch},
          std::pair{"session_state", &s.session_state}}) {
        sweep(name, *frame, decode_net);
        sweep(name, *frame, decode_net, reseal_frame);
    }
}

TEST(WireFuzzTest, IngestServerHandlers) {
    const qt::net_samples s = qt::sample_net_frames();

    qn::ingest_server_options opt;
    opt.listen.transport = qn::endpoint::kind::unix_path;
    opt.listen.path =
        "/tmp/qpsa-wire-fuzz-" + std::to_string(::getpid()) + ".sock";
    opt.service.threads = 1;
    qs::plan_cache cache;
    qn::ingest_server srv(opt, qt::sample_registry, &cache);
    srv.start();
    {
        // Admit the session the sample beat_batch addresses.
        const qn::frame admit = qn::decode_frame(s.admit);
        qn::socket_conn c = qn::dial(srv.local());
        c.send_frame(admit.type, admit.body);
        c.send_frame(qn::msg_type::flush, {});
        const auto ack = c.recv_frame();
        ASSERT_TRUE(ack && ack->type == qn::msg_type::flush_ack);
        c.send_frame(qn::msg_type::bye, {});
    }

    // One connection per re-sealed input: send it, then a flush barrier.
    // The server either answers the flush (the input was handled) or
    // drops the connection (it threw wire_error); any other exception
    // escapes its handler thread and ends the process.
    std::size_t answered = 0;
    std::size_t dropped = 0;
    for (const qt::bytes* sample : {&s.hello, &s.admit, &s.beat_batch}) {
        for (std::size_t i = qn::frame_header_bytes; i < sample->size(); ++i) {
            for (const std::uint8_t m : masks) {
                qt::bytes in = *sample;
                in[i] ^= m;
                reseal_frame(in);
                qn::frame f;
                try {
                    f = qn::decode_frame(in);
                } catch (const qs::wire_error&) {
                    continue;  // unknown type: the frame layer's job
                }
                qn::socket_conn c = qn::dial(srv.local());
                bool flushed = false;
                try {
                    c.send_frame(f.type, f.body);
                    c.send_frame(qn::msg_type::flush, {});
                    while (auto reply = c.recv_frame()) {
                        if (reply->type == qn::msg_type::flush_ack) {
                            flushed = true;
                            break;
                        }
                    }
                } catch (const qn::net_error&) {
                    // The server closed mid-exchange.
                }
                ++(flushed ? answered : dropped);
            }
        }
    }
    std::printf("ingest_server: %zu re-sealed frames answered, %zu dropped\n",
                answered, dropped);
    EXPECT_GT(answered, 0u);
    EXPECT_GT(dropped, 0u);
    srv.stop();
}
