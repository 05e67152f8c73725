#include "snapshot/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/crc32.hpp"

namespace quartz::snapshot {
namespace {

namespace fs = std::filesystem;

// ctest runs each TEST as its own process, possibly concurrently, so the
// scratch directory must be per-process or the checkpoint-listing tests
// race on each other's ckpt-*.qsnap files.
class TempDir {
 public:
  TempDir()
      : path_((fs::temp_directory_path() /
               ("qsnap_io_test." + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Writer sample_writer() {
  Writer w;
  w.begin_chunk(chunk_id("ABCD"));
  w.put_u8(7);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(~std::uint64_t{0});
  w.put_i32(-42);
  w.put_i64(-1'000'000'000'000);
  w.put_f64(3.25);
  w.put_bool(true);
  w.put_string("quartz");
  w.put_f64_vec({1.0, -2.5, 1e-9});
  w.end_chunk();
  w.begin_chunk(chunk_id("WXYZ"));
  Rng rng(99);
  rng.next_u64();
  w.put_rng(rng);
  w.end_chunk();
  return w;
}

void verify_sample(Reader& r) {
  r.open_chunk(chunk_id("ABCD"));
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1'000'000'000'000);
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "quartz");
  EXPECT_EQ(r.get_f64_vec(), (std::vector<double>{1.0, -2.5, 1e-9}));
  r.close_chunk();
  r.open_chunk(chunk_id("WXYZ"));
  Rng expected(99);
  expected.next_u64();
  Rng restored(1);
  r.get_rng(restored);
  r.close_chunk();
  EXPECT_EQ(restored.next_u64(), expected.next_u64());
}

TEST(SnapshotIo, RoundTripsEveryPrimitive) {
  std::string error;
  auto reader = Reader::from_bytes(file_bytes(sample_writer(), 12), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->sequence(), 12u);
  verify_sample(*reader);
}

TEST(SnapshotIo, FileRoundTripIsAtomicAndIdentical) {
  TempDir dir;
  const std::string path = checkpoint_path(dir.path(), 3);
  EXPECT_EQ(path, dir.path() + "/ckpt-00000003.qsnap");
  write_file_atomic(path, sample_writer(), 3);
  // No tmp residue: the write either fully lands or never appears.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().extension(), ".qsnap");
  }
  std::string error;
  auto reader = Reader::from_file(path, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->sequence(), 3u);
  verify_sample(*reader);
}

TEST(SnapshotIo, RejectsBadMagicVersionAndCrc) {
  const std::vector<std::byte> good = file_bytes(sample_writer(), 1);
  std::string error;

  std::vector<std::byte> magic = good;
  magic[0] = std::byte{'X'};
  EXPECT_FALSE(Reader::from_bytes(magic, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  std::vector<std::byte> version = good;
  version[8] = std::byte{9};
  EXPECT_FALSE(Reader::from_bytes(version, &error).has_value());

  // Flip one payload byte inside the first chunk: its CRC must catch it.
  std::vector<std::byte> corrupt = good;
  corrupt[24 + 16] ^= std::byte{0x01};
  EXPECT_FALSE(Reader::from_bytes(corrupt, &error).has_value());
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(SnapshotIo, RejectsVersionOneSnapshots) {
  // Version 1 engines saved probe events beside timers; their snapshots
  // must be refused, never read as version 2.
  std::vector<std::byte> old = file_bytes(sample_writer(), 1);
  old[8] = std::byte{1};
  std::string error;
  EXPECT_FALSE(Reader::from_bytes(old, &error).has_value());
  EXPECT_EQ(error, "unsupported version 1");
}

TEST(SnapshotIo, DetectsTornWrites) {
  const std::vector<std::byte> good = file_bytes(sample_writer(), 1);
  std::string error;
  // Any truncation — mid-chunk or cutting off the end chunk — fails
  // structurally, never half-applies.
  for (const std::size_t keep : {good.size() - 1, good.size() - 16, std::size_t{40}}) {
    std::vector<std::byte> torn(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(Reader::from_bytes(torn, &error).has_value()) << keep;
  }
}

TEST(SnapshotIo, ChunkDisciplineIsEnforced) {
  std::string error;
  auto reader = Reader::from_bytes(file_bytes(sample_writer(), 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  // Wrong id.
  EXPECT_THROW(reader->open_chunk(chunk_id("NOPE")), std::invalid_argument);
  reader = Reader::from_bytes(file_bytes(sample_writer(), 0), &error);
  reader->open_chunk(chunk_id("ABCD"));
  // Close before the payload is consumed.
  EXPECT_THROW(reader->close_chunk(), std::invalid_argument);
}

TEST(SnapshotIo, DamagedCountThrowsBeforeSizingAnAllocation) {
  // A count no chunk could hold must throw, not reserve 2^40 items.
  Writer w;
  w.begin_chunk(chunk_id("VECS"));
  w.put_u64(std::uint64_t{1} << 40);
  w.put_f64(1.0);
  w.put_u64(2);
  w.put_u32(7);
  w.put_u32(8);
  w.end_chunk();
  std::string error;
  auto reader = Reader::from_bytes(file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  reader->open_chunk(chunk_id("VECS"));
  EXPECT_THROW(reader->get_f64_vec(), std::invalid_argument);

  reader = Reader::from_bytes(file_bytes(w, 0), &error);
  reader->open_chunk(chunk_id("VECS"));
  reader->get_u64();
  reader->get_f64();
  // Two 4-byte items fit the 8 bytes left; two 8-byte items do not.
  EXPECT_EQ(reader->get_count(sizeof(std::uint32_t)), 2u);
  reader = Reader::from_bytes(file_bytes(w, 0), &error);
  reader->open_chunk(chunk_id("VECS"));
  reader->get_u64();
  reader->get_f64();
  EXPECT_THROW(reader->get_count(sizeof(std::uint64_t)), std::invalid_argument);
}

TEST(SnapshotIo, ListsCheckpointsInSequenceOrder) {
  TempDir dir;
  for (const std::uint64_t seq : {5u, 1u, 3u}) {
    write_file_atomic(checkpoint_path(dir.path(), seq), sample_writer(), seq);
  }
  std::ofstream(dir.path() + "/notes.txt") << "ignored";
  const std::vector<CheckpointFile> files = list_checkpoints(dir.path());
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].sequence, 1u);
  EXPECT_EQ(files[1].sequence, 3u);
  EXPECT_EQ(files[2].sequence, 5u);
}

TEST(SnapshotIo, FallsBackPastDamagedCheckpoints) {
  TempDir dir;
  write_file_atomic(checkpoint_path(dir.path(), 1), sample_writer(), 1);
  write_file_atomic(checkpoint_path(dir.path(), 2), sample_writer(), 2);
  // Newest checkpoint is torn mid-write.
  const std::vector<std::byte> good = file_bytes(sample_writer(), 3);
  std::ofstream torn(checkpoint_path(dir.path(), 3), std::ios::binary);
  torn.write(reinterpret_cast<const char*>(good.data()),
             static_cast<std::streamsize>(good.size() - 20));
  torn.close();

  std::string warnings;
  auto reader = load_latest_intact(dir.path(), &warnings);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->sequence(), 2u);
  verify_sample(*reader);
  // One structured warning line per rejected file.
  EXPECT_NE(warnings.find("ckpt-00000003.qsnap"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find("rejected"), std::string::npos) << warnings;
}

TEST(SnapshotIo, NoIntactCheckpointYieldsNothing) {
  TempDir dir;
  std::string warnings;
  EXPECT_FALSE(load_latest_intact(dir.path(), &warnings).has_value());
  EXPECT_TRUE(warnings.empty());
  // A lone corrupt file: nothing to restore, one warning.
  std::ofstream(checkpoint_path(dir.path(), 1), std::ios::binary) << "garbage";
  EXPECT_FALSE(load_latest_intact(dir.path(), &warnings).has_value());
  EXPECT_NE(warnings.find("rejected"), std::string::npos) << warnings;
}

TEST(SnapshotIo, Crc32MatchesKnownVector) {
  // IEEE 802.3 reflected CRC-32 of "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

}  // namespace
}  // namespace quartz::snapshot
