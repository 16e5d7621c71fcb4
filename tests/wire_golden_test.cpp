// Golden bytes for every qpsa wire format.  The round-trip suites cannot
// see an encoding change that is the same on both sides; these pins can:
// each sample (wire_samples.hpp) must serialize to exactly the recorded
// size and CRC-32.  A failure here means the bytes on disk or on the
// socket changed -- a format break that needs a version bump, not a
// re-pin.
#include <gtest/gtest.h>

#include "qpsa/util/crc32.hpp"
#include "wire_samples.hpp"

namespace qt = qpsa::test;

namespace {

struct pin {
    std::size_t size;
    std::uint32_t crc;
};

void expect_pinned(const qt::bytes& got, pin want) {
    EXPECT_EQ(got.size(), want.size);
    EXPECT_EQ(qpsa::util::crc32(got), want.crc)
        << std::hex << "crc 0x" << qpsa::util::crc32(got);
}

}  // namespace

TEST(WireGoldenTest, FleetSnapshot) {
    expect_pinned(qt::sample_snapshot().serialize(), {650, 0x5556F9EC});
}

TEST(WireGoldenTest, SessionRuntimeState) {
    expect_pinned(qt::sample_state().serialize(), {779, 0x57F2374A});
}

TEST(WireGoldenTest, JournalFile) {
    expect_pinned(qt::sample_journal(), {1101, 0x048B993F});
}

TEST(WireGoldenTest, NetFrames) {
    const qt::net_samples f = qt::sample_net_frames();
    expect_pinned(f.hello, {24, 0x3A4F974E});
    expect_pinned(f.admit, {50, 0x24E6D22E});
    expect_pinned(f.beat_batch, {89, 0x680BD948});
    expect_pinned(f.session_state, {668, 0x668632CB});
}
