// The committed .qsnap fixture pins the checkpoint format against
// drift: a small storm saved mid-run must still serialize to exactly
// fixtures/storm.qsnap, and that file must still read back through
// Reader::from_file and resume to the pinned digests.  On a mismatch
// the first test writes the fresh bytes to storm.qsnap in its working
// directory; after an intended format change, review that file, copy
// it over the fixture and update the pinned digests below.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chaos/sharded_storm.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"

namespace quartz::snapshot {
namespace {

const std::string kFixture = std::string(QUARTZ_SNAPSHOT_FIXTURES) + "/storm.qsnap";
constexpr std::uint64_t kSequence = 1;

/// One flat 8-switch ring storm firing every fault class, short enough
/// that its checkpoint stays small.
chaos::ShardedStormParams fixture_params() {
  return chaos::every_fault_storm(7, microseconds(100));
}

/// The fixture is taken halfway through the storm.
std::vector<std::byte> fresh_checkpoint() {
  const chaos::ShardedStormParams params = fixture_params();
  chaos::ShardedStormRun run(params);
  run.arm();
  run.run_to(params.storm_start + (params.storm_end - params.storm_start) / 2);
  Writer w;
  run.save(w);
  return file_bytes(w, kSequence);
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto* first = reinterpret_cast<const std::byte*>(s.data());
  return {first, first + s.size()};
}

TEST(SnapshotFixture, StormCheckpointStillSerializesToTheFixture) {
  const std::vector<std::byte> fresh = fresh_checkpoint();
  const bool unchanged = fresh == read_bytes(kFixture);
  if (!unchanged) {
    std::ofstream("storm.qsnap", std::ios::binary)
        .write(reinterpret_cast<const char*>(fresh.data()),
               static_cast<std::streamsize>(fresh.size()));
  }
  EXPECT_TRUE(unchanged) << "the mid-storm checkpoint no longer serializes to " << kFixture;
}

TEST(SnapshotFixture, StormCheckpointResumesToPinnedDigests) {
  std::string error;
  auto reader = Reader::from_file(kFixture, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->sequence(), kSequence);
  chaos::ShardedStormRun resumed(fixture_params());
  resumed.restore(*reader);
  const chaos::ShardedStormResult result = resumed.finish();
  EXPECT_TRUE(result.passed()) << result.summary();
  EXPECT_EQ(result.delivery_digest, 0xbd4a065ce28ab1d6u);
  EXPECT_EQ(result.drop_digest, 0x3715f8c110a9ea9eu);
  EXPECT_EQ(result.deliveries, 586u);
  EXPECT_EQ(result.drops, 6u);

  const chaos::ShardedStormResult uninterrupted = chaos::run_storm(fixture_params());
  EXPECT_EQ(result.delivery_digest, uninterrupted.delivery_digest);
  EXPECT_EQ(result.drop_digest, uninterrupted.drop_digest);
}

}  // namespace
}  // namespace quartz::snapshot
