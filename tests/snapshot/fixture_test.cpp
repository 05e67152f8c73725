// The committed .qsnap fixture pins the checkpoint format against
// drift: a small storm saved mid-run must still serialize to exactly
// fixtures/storm.qsnap, and that file must still read back through
// Reader::from_file and resume to the pinned digests.  On a mismatch
// the first test writes the fresh bytes to storm.qsnap in its working
// directory; after an intended format change, review that file, copy
// it over the fixture and update the pinned digests below.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chaos/sharded_storm.hpp"
#include "common/crc32.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"
#include "support/mutant.hpp"

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

// The .qsnap framing (see snapshot/io.hpp): a 24-byte file header, then
// chunks of id:u32 crc:u32 payload_bytes:u64, payload, pad to 8.
constexpr std::size_t kFileHeaderBytes = 24;
constexpr std::size_t kChunkHeaderBytes = 16;

std::uint64_t payload_bytes(const std::vector<std::byte>& bytes, std::size_t chunk) {
  std::uint64_t payload = 0;
  std::memcpy(&payload, bytes.data() + chunk + 8, sizeof payload);
  return payload;
}

std::size_t next_chunk(std::size_t chunk, std::uint64_t payload) {
  return chunk + kChunkHeaderBytes + static_cast<std::size_t>((payload + 7) / 8 * 8);
}

/// Re-stamps every chunk CRC the chunk walk can reach, so a mutant's
/// damaged payload gets past Reader's structural checks and into the
/// component readers.
void restamp_crcs(std::vector<std::byte>& bytes) {
  for (std::size_t at = kFileHeaderBytes; at + kChunkHeaderBytes <= bytes.size();) {
    const std::uint64_t payload = payload_bytes(bytes, at);
    if (payload > bytes.size() - at - kChunkHeaderBytes) return;
    const std::uint32_t crc = crc32(bytes.data() + at + kChunkHeaderBytes, payload);
    std::memcpy(bytes.data() + at + 4, &crc, sizeof crc);
    at = next_chunk(at, payload);
  }
}

/// Payload offset of the first chunk tagged `id`, or 0 when absent.
std::size_t chunk_payload(const std::vector<std::byte>& bytes, std::uint32_t id) {
  for (std::size_t at = kFileHeaderBytes; at + kChunkHeaderBytes <= bytes.size();) {
    std::uint32_t found = 0;
    std::memcpy(&found, bytes.data() + at, sizeof found);
    if (found == id) return at + kChunkHeaderBytes;
    at = next_chunk(at, payload_bytes(bytes, at));
  }
  return 0;
}

enum class Fate { kRejected, kThrew, kRestored };

/// Loads and restores one damaged checkpoint: rejecting it or throwing
/// is fine, crashing or hanging is not.
Fate try_restore(std::vector<std::byte> bytes) {
  std::string error;
  auto reader = Reader::from_bytes(std::move(bytes), &error);
  if (!reader.has_value()) {
    EXPECT_FALSE(error.empty());
    return Fate::kRejected;
  }
  chaos::ShardedStormRun run(fixture_params());
  try {
    run.restore(*reader);
  } catch (const std::exception&) {
    return Fate::kThrew;
  }
  return Fate::kRestored;
}

TEST(SnapshotFixture, MutatedFixtureIsRejectedOrThrowsNeverCrashes) {
  const std::vector<std::byte> fixture = read_bytes(kFixture);
  ASSERT_FALSE(fixture.empty());
  Rng rng(0x51a9);
  int fates[3] = {};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> bytes = test::mutant(fixture, rng);
    // Flips alone rarely survive the chunk CRCs; re-stamping half the
    // mutants sends their damage on into the component readers.
    if (i % 2 == 1) restamp_crcs(bytes);
    ++fates[static_cast<int>(try_restore(std::move(bytes)))];
  }
  // The loop reaches every outcome: the structural checks, the
  // component readers' checks, and damage to fields nothing checks.
  EXPECT_GT(fates[static_cast<int>(Fate::kRejected)], 0);
  EXPECT_GT(fates[static_cast<int>(Fate::kThrew)], 0);
  EXPECT_GT(fates[static_cast<int>(Fate::kRestored)], 0);
}

TEST(SnapshotFixture, HugeFaultActionCountThrowsInsteadOfAllocating) {
  // Found by the loop above: a damaged fault-action count with a
  // re-stamped CRC made FaultScheduler::restore reserve terabytes.
  std::vector<std::byte> bytes = read_bytes(kFixture);
  const std::size_t faults = chunk_payload(bytes, chunk_id("FLTS"));
  ASSERT_GT(faults, 0u);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + faults, &huge, sizeof huge);
  restamp_crcs(bytes);
  std::string error;
  auto reader = Reader::from_bytes(std::move(bytes), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  chaos::ShardedStormRun run(fixture_params());
  EXPECT_THROW(run.restore(*reader), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::snapshot
