#include "telemetry/binary_stream.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::telemetry {
namespace {

TEST(PageCrc, IsTheIeeeCrc32) {
  // Pages are sealed with quartz::crc32 (its kernels are tested in
  // common_test); the on-disk format pins the IEEE 802.3 polynomial.
  const char kat[] = "123456789";
  EXPECT_EQ(crc32(kat, 9), 0xCBF43926u);
}

TEST(Zigzag, RoundTripsTheFullRange) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{1250},
        std::int64_t{-987654321}, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes encode small, so common deltas stay in few bits.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(BinaryStream, OnDiskLayoutIsStable) {
  EXPECT_EQ(sizeof(StreamFileHeader), 16u);
  EXPECT_EQ(sizeof(PageHeader), 40u);
  EXPECT_EQ(sizeof(Page), kPageBytes);
  EXPECT_EQ(kPagePayloadBytes, kPageBytes - sizeof(PageHeader));
}

TEST(BinaryStream, SyncModeWritesAValidDecodableFile) {
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream::Options options;
    options.stream_id = 7;
    BinaryStream stream(sink, options);
    BinaryStreamSink events(stream);
    events.on_link_state(3, true, 1000);
    events.on_link_state(3, false, 2500);
    stream.finish();
    EXPECT_EQ(stream.records(), 2u);
    EXPECT_EQ(stream.pages_sealed(), 1u);
    EXPECT_EQ(sink.pages(), 1u);
  }

  const std::string buf = file.str();
  StreamFileHeader file_header;
  ASSERT_GE(buf.size(), sizeof(file_header) + sizeof(PageHeader));
  std::memcpy(&file_header, buf.data(), sizeof(file_header));
  EXPECT_EQ(file_header.magic, kStreamFileMagic);
  EXPECT_EQ(file_header.version, 1u);
  PageHeader page;
  std::memcpy(&page, buf.data() + sizeof(file_header), sizeof(page));
  EXPECT_EQ(page.magic, kPageMagic);
  EXPECT_EQ(page.stream_id, 7u);
  EXPECT_EQ(page.page_seq, 0u);
  EXPECT_EQ(page.first_record_seq, 0u);
  EXPECT_EQ(page.base_time_ps, 0);
  EXPECT_EQ(page.payload_bytes, 2u * 16u);  // two one-word records

  std::ostringstream jsonl;
  JsonlEventWriter writer(jsonl);
  std::vector<TelemetrySink*> sinks{&writer};
  file.seekg(0);
  const DecodeStats stats = decode_stream(file, sinks);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(jsonl.str(),
            "{\"ev\":\"link_state\",\"t\":1000,\"link\":3,\"up\":true}\n"
            "{\"ev\":\"link_state\",\"t\":2500,\"link\":3,\"up\":false}\n");
}

TEST(BinaryStream, PageRollKeepsEveryRecord) {
  // 16-byte records: 4093 per page, so 10000 records span three pages.
  constexpr std::uint64_t kRecords = 10000;
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream stream(sink);
    BinaryStreamSink events(stream);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      events.on_probe(static_cast<topo::LinkId>(i % 50), (i & 1) != 0,
                      static_cast<TimePs>(i * 64));
    }
    stream.finish();
    EXPECT_EQ(stream.records(), kRecords);
    EXPECT_EQ(stream.pages_sealed(), 3u);
  }
  std::vector<TelemetrySink*> sinks;
  file.seekg(0);
  const DecodeStats stats = decode_stream(file, sinks);
  EXPECT_TRUE(stats.gaps.empty()) << stats.gaps.front().reason;
  EXPECT_EQ(stats.pages, 3u);
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_EQ(stats.streams, 1u);
}

TEST(BinaryStream, NonMonotoneTimesSurviveTheDeltaEncoding) {
  // Sim time is monotone per engine, but the format does not rely on
  // it: zigzag deltas carry time backwards too.
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream stream(sink);
    BinaryStreamSink events(stream);
    events.on_link_state(1, true, 5000);
    events.on_link_state(2, true, 1200);  // backwards
    events.on_link_state(3, true, 9000);
    stream.finish();
  }
  std::ostringstream jsonl;
  JsonlEventWriter writer(jsonl);
  std::vector<TelemetrySink*> sinks{&writer};
  file.seekg(0);
  const DecodeStats stats = decode_stream(file, sinks);
  EXPECT_TRUE(stats.gaps.empty());
  // A single stream replays in record order (the merge key only
  // arbitrates *between* streams), timestamps intact.
  EXPECT_EQ(jsonl.str(),
            "{\"ev\":\"link_state\",\"t\":5000,\"link\":1,\"up\":true}\n"
            "{\"ev\":\"link_state\",\"t\":1200,\"link\":2,\"up\":true}\n"
            "{\"ev\":\"link_state\",\"t\":9000,\"link\":3,\"up\":true}\n");
}

TEST(BinaryStream, BackgroundModeMatchesSyncByteForByte) {
  const auto run = [](bool background) {
    std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
    StreamFile sink(file);
    BinaryStream::Options options;
    options.stream_id = 5;
    options.background = background;
    BinaryStream stream(sink, options);
    BinaryStreamSink events(stream);
    for (std::uint64_t i = 0; i < 9000; ++i) {
      events.on_probe(static_cast<topo::LinkId>(i % 17), (i % 3) == 0,
                      static_cast<TimePs>(i * 320));
    }
    stream.finish();
    return file.str();
  };
  const std::string sync_bytes = run(false);
  const std::string background_bytes = run(true);
  EXPECT_EQ(sync_bytes.size(), background_bytes.size());
  EXPECT_TRUE(sync_bytes == background_bytes);
}

/// Blocks every accept() until released — starves the drainer so the
/// writer must grow its page pool.
class GatedSink final : public PageSink {
 public:
  explicit GatedSink(PageSink& inner) : inner_(&inner) {}
  void accept(const Page& page) override {
    while (gated_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    inner_->accept(page);
  }
  void open() { gated_.store(false, std::memory_order_release); }

 private:
  PageSink* inner_;
  std::atomic<bool> gated_{true};
};

TEST(BinaryStream, EmergencyGrowthWhenTheDrainerFallsBehind) {
  // Nine pages of records against a blocked drainer: the free ring
  // holds seven spares, so the writer must allocate at least one
  // emergency page — and still lose nothing.
  constexpr std::uint64_t kRecords = 9 * 4093;
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile inner(file);
    GatedSink sink(inner);
    BinaryStream::Options options;
    options.background = true;
    BinaryStream stream(sink, options);
    BinaryStreamSink events(stream);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      events.on_probe(static_cast<topo::LinkId>(i % 31), true, static_cast<TimePs>(i * 64));
    }
    EXPECT_GE(stream.emergency_pages(), 1u);
    sink.open();
    stream.finish();
    EXPECT_EQ(stream.records(), kRecords);
  }
  std::vector<TelemetrySink*> sinks;
  file.seekg(0);
  const DecodeStats stats = decode_stream(file, sinks);
  EXPECT_TRUE(stats.gaps.empty()) << stats.gaps.front().reason;
  EXPECT_EQ(stats.records, kRecords);
}

TEST(BinaryStream, FinishIsIdempotentAndEmptyStreamsWriteNoPages) {
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  StreamFile sink(file);
  {
    BinaryStream stream(sink);
    stream.finish();
    stream.finish();
    EXPECT_EQ(stream.pages_sealed(), 0u);
  }  // destructor calls finish() again
  EXPECT_EQ(sink.pages(), 0u);
  // A file with only the header decodes clean: zero records, no gaps.
  std::vector<TelemetrySink*> sinks;
  file.seekg(0);
  const DecodeStats stats = decode_stream(file, sinks);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.records, 0u);
}

}  // namespace
}  // namespace quartz::telemetry
