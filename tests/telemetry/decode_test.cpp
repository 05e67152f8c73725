#include "telemetry/decode.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "sim/experiments.hpp"
#include "sim/packet.hpp"
#include "sim/workloads.hpp"
#include "support/closure_timer.hpp"
#include "support/mutant.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::telemetry {
namespace {

using sim::Fabric;
using sim::TaskExperimentParams;

/// Replays a scripted event sequence that exercises the full stream
/// vocabulary — including the wide transmit/forward variants and the
/// invariants the decoder reconstructs from (queued accumulation, hop
/// counting, arrival last-bit).  Called once per sink so both the
/// direct and the decoded path see identical arguments.
void drive(TelemetrySink& sink) {
  sim::Packet a;
  a.id = 42;
  a.task = 3;
  a.size = bytes(400);
  a.key.src = 1;
  a.key.dst = 9;
  a.created = 1'000'000;
  sink.on_send(a, 1'000'500);
  a.queued += 2'000;  // the live network bumps queued before on_transmit
  sink.on_transmit(a, 1, 5, 0, 1'000'500, 1'002'500, 1'322'500);
  sink.on_arrival(a, 7, 1'322'600, 1'642'600);
  ++a.hops;  // switch hops bump before on_forward
  sink.on_forward(a, 7, HopKind::kCutThrough, 1'322'600, 1'642'600, 1'322'750);
  // A 5 ms queue wait overflows the packed 32-bit field: wide variant.
  a.queued += 5'000'000'000;
  sink.on_transmit(a, 7, 12, 1, 1'322'750, 5'001'322'750, 5'001'642'750);
  sink.on_arrival(a, 9, 5'001'642'850, 5'001'962'850);
  sink.on_delivery(a, 5'002'000'000, 5'001'000'000);

  sim::Packet b;
  b.id = 43;
  b.task = 3;
  b.size = bytes(1500);
  b.key.src = 2;
  b.key.dst = 5;
  b.created = 5'002'100'000;
  sink.on_send(b, 5'002'100'400);
  sink.on_drop(b, DropReason::kQueueOverflow, 5'003'000'000);

  sim::Packet c;
  c.id = 44;
  c.task = 0;
  c.size = bytes(64);
  c.key.src = 3;
  c.key.dst = 8;
  c.created = 5'004'000'000;
  sink.on_send(c, 5'004'000'100);
  sink.on_transmit(c, 3, 2, 0, 5'004'000'100, 5'004'000'100, 5'004'051'300);
  sink.on_arrival(c, 6, 5'004'051'400, 5'004'102'600);
  // A >1 ms forwarding decision overflows the packed 30-bit delta.
  ++c.hops;
  sink.on_forward(c, 6, HopKind::kStoreAndForward, 5'004'051'400, 5'004'102'600,
                  7'004'051'400);
  sink.on_transmit(c, 6, 9, 1, 7'004'051'400, 7'004'051'400, 7'004'102'600);
  sink.on_arrival(c, 11, 7'004'102'700, 7'004'153'900);
  // Server relays do not count as switch hops.
  sink.on_forward(c, 11, HopKind::kServerRelay, 7'004'102'700, 7'004'153'900,
                  7'004'200'000);
  sink.on_delivery(c, 7'005'000'000, 2'001'000'000);

  sink.on_link_state(3, false, 7'005'100'000);
  sink.on_link_detected(3, true, 7'005'600'000);
  sink.on_link_degraded(4, 0.12345, 7'006'000'000);
  sink.on_probe(4, true, 7'006'200'000);
  sink.on_probe(4, false, 7'006'400'000);
  sink.on_health_transition(4, routing::LinkHealth::kHealthy, routing::LinkHealth::kLossy,
                            7'006'500'000);
  sink.on_flap_damped(4, 7'010'000'000, 7'006'600'000);
  sink.on_link_state(3, true, 7'007'000'000);
}

std::string decode_to_jsonl(std::istream& in, DecodeStats* stats_out = nullptr) {
  std::ostringstream jsonl;
  JsonlEventWriter writer(jsonl);
  std::vector<TelemetrySink*> sinks{&writer};
  in.seekg(0);
  const DecodeStats stats = decode_streams({&in}, sinks);
  if (stats_out != nullptr) *stats_out = stats;
  return jsonl.str();
}

TEST(Decode, FullVocabularyRoundTripsByteIdentical) {
  std::ostringstream direct;
  {
    JsonlEventWriter writer(direct);
    drive(writer);
  }
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream stream(sink);
    BinaryStreamSink events(stream);
    drive(events);
    stream.finish();
  }
  DecodeStats stats;
  const std::string decoded = decode_to_jsonl(file, &stats);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.orphan_records, 0u);
  EXPECT_EQ(direct.str(), decoded);
  EXPECT_EQ(fnv1a(direct.str().data(), direct.str().size(), kDigestSeed),
            fnv1a(decoded.data(), decoded.size(), kDigestSeed));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// The committed fixture pins the .qtz format and the JSONL schema
/// against drift: drive() must still encode to exactly
/// fixtures/vocabulary.qtz, and that file must still decode to exactly
/// fixtures/vocabulary.jsonl.  On a mismatch the test writes the new
/// bytes into its working directory; after an intended format or
/// schema change, review them and copy them over the fixtures.
TEST(Decode, CommittedVocabularyFixtureEncodesAndDecodesUnchanged) {
  const std::string fixtures = QUARTZ_TELEMETRY_FIXTURES;
  const std::string qtz = read_file(fixtures + "/vocabulary.qtz");
  const std::string jsonl = read_file(fixtures + "/vocabulary.jsonl");

  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream stream(sink);
    BinaryStreamSink events(stream);
    drive(events);
    stream.finish();
  }
  const std::string encoded = file.str();
  std::istringstream in(qtz, std::ios::binary);
  DecodeStats stats;
  const std::string decoded = decode_to_jsonl(in, &stats);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.records, 25u);
  const bool encodes = encoded == qtz;
  const bool decodes = decoded == jsonl;
  if (!encodes || !decodes) {
    std::ofstream("vocabulary.qtz", std::ios::binary) << encoded;
    std::istringstream fresh(encoded, std::ios::binary);
    std::ofstream("vocabulary.jsonl", std::ios::binary) << decode_to_jsonl(fresh);
  }
  EXPECT_TRUE(encodes) << "drive() no longer encodes to " << fixtures << "/vocabulary.qtz";
  EXPECT_TRUE(decodes) << "vocabulary.qtz no longer decodes to " << fixtures
                       << "/vocabulary.jsonl";
}

/// Re-stamps the CRC of every page the page walk can reach, so a
/// mutant's damaged payload gets past the page checks and into the
/// record parser and the replay.
void restamp_page_crcs(std::string& buf) {
  std::size_t off = sizeof(StreamFileHeader);
  while (off + sizeof(PageHeader) <= buf.size()) {
    PageHeader header;
    std::memcpy(&header, buf.data() + off, sizeof header);
    const std::size_t payload = off + sizeof header;
    if (header.magic != kPageMagic || header.payload_bytes > buf.size() - payload) return;
    header.crc = crc32(buf.data() + payload, header.payload_bytes);
    std::memcpy(buf.data() + off, &header, sizeof header);
    off = payload + (header.payload_bytes + 7) / 8 * 8;
  }
}

TEST(Decode, MutatedVocabularyFixtureNeverCrashes) {
  const std::string qtz = read_file(std::string(QUARTZ_TELEMETRY_FIXTURES) + "/vocabulary.qtz");
  ASSERT_FALSE(qtz.empty());
  Rng rng(0x9172);
  int clean = 0;
  int damaged = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = test::mutant(qtz, rng);
    // Flips alone mostly fail the page CRC; re-stamping half the
    // mutants sends their damage on into the record parser.
    if (i % 2 == 1) restamp_page_crcs(bytes);
    std::istringstream in(bytes, std::ios::binary);
    DecodeStats stats;
    try {
      decode_to_jsonl(in, &stats);
    } catch (const std::exception&) {
    }
    ++(stats.gaps.empty() ? clean : damaged);
  }
  // Both kinds occur: damage the decoder reports as gaps, and damage
  // to record fields no check covers.
  EXPECT_GT(clean, 0);
  EXPECT_GT(damaged, 0);
}

TEST(Decode, OverflowingRecordTimesWrapInsteadOfOverflowing) {
  // Found by the loop above: damaged offsets pushed `time + offset`
  // past INT64_MAX, signed overflow under UBSan.  Here the offset is
  // the first record's, a send's ready time.
  std::string qtz = read_file(std::string(QUARTZ_TELEMETRY_FIXTURES) + "/vocabulary.qtz");
  // The first record (a send) starts after the file and page headers;
  // its fourth payload word is the ready offset.
  const std::size_t ready = sizeof(StreamFileHeader) + sizeof(PageHeader) + 4 * 8;
  ASSERT_LT(ready + 8, qtz.size());
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  std::memcpy(qtz.data() + ready, &huge, sizeof huge);
  restamp_page_crcs(qtz);
  std::istringstream in(qtz, std::ios::binary);
  DecodeStats stats;
  decode_to_jsonl(in, &stats);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.records, 25u);
}

TEST(Decode, ExperimentCaptureMatchesTheLegacyDirectExport) {
  // One live run feeds both paths: a JsonlEventWriter attached as an
  // ordinary sink (the direct export) and a BinaryStreamSink capture.
  // Decoding the capture must reproduce the direct JSONL byte for
  // byte — the reference that proves capture plus decode is lossless
  // for a scatter task on quartz-in-jellyfish, a cut and repair (link
  // state, detection, link-down drops) and a gray failure (link
  // degradation, corruption drops).
  sim::BuiltFabric fabric = sim::build_fabric(Fabric::kQuartzInJellyfish);
  sim::SimConfig config;
  config.failure_detection_delay = microseconds(50);
  sim::Network net(fabric.topo, *fabric.oracle, config);
  test::ClosureTimer timers(net);
  if (fabric.fib != nullptr) net.set_fib(fabric.fib.get());

  std::ostringstream direct;
  JsonlEventWriter writer(direct);
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  StreamFile pages(file);
  BinaryStream stream(pages);
  BinaryStreamSink capture(stream);
  net.set_stream_sink(&capture);
  net.add_sink(&writer);

  const std::vector<topo::NodeId>& hosts = fabric.topo.hosts;
  std::vector<topo::NodeId> receivers;
  for (std::size_t i = 1; i <= 6; ++i) receivers.push_back(hosts[i * 7 % hosts.size()]);
  sim::TaskPatternParams flows;
  flows.stop = milliseconds(1);
  sim::ScatterTask scatter(net, hosts[0], receivers, flows, Rng(7));
  // The sender's access link is cut and repaired; one receiver's access
  // link turns lossy, then clean.
  const topo::LinkId cut = fabric.topo.graph.neighbors(hosts[0]).front().link;
  const topo::LinkId lossy = fabric.topo.graph.neighbors(receivers[2]).front().link;
  timers.at(microseconds(200), [&] { net.fail_link(cut); });
  timers.at(microseconds(400), [&] { net.repair_link(cut); });
  timers.at(microseconds(300), [&] { net.set_link_loss(lossy, 0.3); });
  timers.at(microseconds(700), [&] { net.set_link_loss(lossy, 0.0); });
  net.run_until(milliseconds(2));
  stream.finish();

  EXPECT_GT(net.packets_dropped(sim::DropReason::kLinkDown), 0u);
  EXPECT_GT(net.packets_dropped(sim::DropReason::kCorrupted), 0u);
  const std::string live = direct.str();
  for (const char* event : {"send", "transmit", "arrival", "forward", "delivery", "drop",
                            "link_state", "link_detected", "link_degraded"}) {
    EXPECT_NE(live.find(std::string("\"ev\":\"") + event + '"'), std::string::npos) << event;
  }
  DecodeStats stats;
  const std::string decoded = decode_to_jsonl(file, &stats);
  EXPECT_TRUE(stats.gaps.empty());
  EXPECT_EQ(stats.records, writer.events());
  EXPECT_EQ(fnv1a(live.data(), live.size(), kDigestSeed),
            fnv1a(decoded.data(), decoded.size(), kDigestSeed));
  EXPECT_TRUE(live == decoded);
}

/// A three-page probe-only capture (no cross-record packet state, so
/// damage to one page never orphans another).
std::string probe_capture(std::uint64_t records) {
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  StreamFile sink(file);
  BinaryStream stream(sink);
  BinaryStreamSink events(stream);
  for (std::uint64_t i = 0; i < records; ++i) {
    events.on_probe(static_cast<topo::LinkId>(i % 31), true, static_cast<TimePs>(i * 64));
  }
  stream.finish();
  return file.str();
}

// 16-byte probe records: 4093 fill one page, so the layout below is
// header(16) + three pages of 40 + payload each.
constexpr std::uint64_t kPerPage = 4093;
constexpr std::size_t kFullPageBytes = sizeof(PageHeader) + kPerPage * 16;

TEST(Decode, TruncatedTailReportsAGapAndKeepsEarlierPages) {
  std::string buf = probe_capture(10000);
  buf.resize(buf.size() - 100);  // tear the last page's tail off
  std::istringstream in(buf, std::ios::binary);
  DecodeStats stats;
  decode_to_jsonl(in, &stats);
  ASSERT_EQ(stats.gaps.size(), 1u);
  EXPECT_EQ(stats.gaps.front().reason, "truncated page");
  EXPECT_EQ(stats.pages, 2u);
  EXPECT_EQ(stats.records, 2 * kPerPage);
}

TEST(Decode, CorruptedPagePayloadFailsItsCrcAndIsSkipped) {
  std::string buf = probe_capture(10000);
  buf[sizeof(StreamFileHeader) + sizeof(PageHeader) + 100] ^= 0x5A;  // page 0 payload
  std::istringstream in(buf, std::ios::binary);
  DecodeStats stats;
  decode_to_jsonl(in, &stats);
  ASSERT_FALSE(stats.gaps.empty());
  EXPECT_EQ(stats.gaps.front().reason, "page crc mismatch");
  EXPECT_EQ(stats.gaps.front().stream_id, 0u);
  // The two undamaged pages decode in full.
  EXPECT_EQ(stats.pages, 2u);
  EXPECT_EQ(stats.records, 10000 - kPerPage);
}

TEST(Decode, LostPageSyncResyncsOnTheNextPageMagic) {
  std::string buf = probe_capture(10000);
  // Smash the middle page's magic: the scanner loses sync, walks
  // 8-aligned until page 2's magic, and reports both the lost region
  // and the resulting sequence jump.
  buf[sizeof(StreamFileHeader) + kFullPageBytes] ^= 0xFF;
  std::istringstream in(buf, std::ios::binary);
  DecodeStats stats;
  decode_to_jsonl(in, &stats);
  ASSERT_GE(stats.gaps.size(), 2u);
  EXPECT_EQ(stats.gaps[0].reason, "lost page sync");
  bool sequence_jump = false;
  for (const StreamGap& gap : stats.gaps) {
    sequence_jump |= gap.reason == "page sequence jump (pages lost)";
  }
  EXPECT_TRUE(sequence_jump);
  EXPECT_EQ(stats.pages, 2u);
  EXPECT_EQ(stats.records, 10000 - kPerPage);
}

TEST(Decode, RecordsOrphanedByAGapAreCountedAndDropped) {
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  {
    StreamFile sink(file);
    BinaryStream stream(sink);
    BinaryStreamSink events(stream);
    sim::Packet p;
    p.id = 1;
    p.task = 0;
    p.size = bytes(400);
    p.key.src = 0;
    p.key.dst = 1;
    p.created = 1000;
    events.on_send(p, 1500);
    // Pad until the send's page seals; its delivery lands in page 1.
    std::uint64_t i = 0;
    while (stream.pages_sealed() == 0) {
      events.on_probe(2, true, static_cast<TimePs>(2000 + ++i));
    }
    events.on_delivery(p, 900'000'000, 899'999'000);
    stream.finish();
  }
  std::string buf = file.str();
  buf[sizeof(StreamFileHeader) + sizeof(PageHeader) + 8] ^= 0x5A;  // kill page 0
  std::istringstream in(buf, std::ios::binary);
  DecodeStats stats;
  const std::string decoded = decode_to_jsonl(in, &stats);
  ASSERT_FALSE(stats.gaps.empty());
  EXPECT_EQ(stats.orphan_records, 1u);  // the delivery lost its send
  EXPECT_EQ(decoded.find("\"ev\":\"delivery\""), std::string::npos);
}

TEST(Decode, GarbageInputReportsABadHeaderNotACrash) {
  std::istringstream garbage("this is not a qtz stream, not even close", std::ios::binary);
  DecodeStats stats;
  decode_to_jsonl(garbage, &stats);
  ASSERT_FALSE(stats.gaps.empty());
  EXPECT_EQ(stats.gaps.front().reason, "bad stream file header");
  EXPECT_EQ(stats.records, 0u);

  std::istringstream empty(std::string(), std::ios::binary);
  DecodeStats empty_stats;
  decode_to_jsonl(empty, &empty_stats);
  EXPECT_EQ(empty_stats.records, 0u);
}

TEST(Decode, ReplicaCaptureIsByteStableAcrossJobs) {
  const auto capture = [](int jobs) {
    std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
    {
      StreamFile sink(file);
      TaskExperimentParams params;
      params.duration = milliseconds(1);
      params.telemetry.stream = &sink;
      sim::SweepOptions sweep;
      sweep.jobs = jobs;
      sim::run_task_replicas(Fabric::kQuartzInJellyfish, {}, params, 3, sweep);
    }
    DecodeStats stats;
    const std::string jsonl = decode_to_jsonl(file, &stats);
    EXPECT_TRUE(stats.gaps.empty());
    EXPECT_EQ(stats.streams, 3u);
    return jsonl;
  };
  // Pages from concurrent workers interleave differently in the file,
  // but the (time, stream, seq) merge makes the decode independent of
  // that interleaving — the multi-worker determinism contract.
  const std::string serial = capture(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(serial == capture(2));
  EXPECT_TRUE(serial == capture(8));
}

}  // namespace
}  // namespace quartz::telemetry
