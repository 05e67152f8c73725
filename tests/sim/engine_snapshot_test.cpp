// Checkpoint/restore of the event engine itself: pending typed events
// survive a save into a fresh engine with their exact (time, stamp, seq)
// dispatch order, and a snapshot naming an unknown event type is
// refused rather than misparsed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {
namespace {

using Fired = std::vector<std::tuple<TimePs, std::uint32_t, std::uint64_t>>;

/// Records every firing; optionally chains follow-up timers so a
/// restored engine keeps producing new work.
class RecordingHandler final : public TimerHandler {
 public:
  explicit RecordingHandler(EventQueue& q) : q_(q) {}

  void on_timer(const TimerEvent& event) override {
    fired.emplace_back(q_.now(), event.tag, event.a);
    if (event.tag == kChainTag && event.a > 0) {
      q_.schedule_timer(q_.now() + 7, {this, kChainTag, event.a - 1, 0});
    }
  }

  static constexpr std::uint32_t kChainTag = 9;
  Fired fired;

 private:
  EventQueue& q_;
};

snapshot::Reader saved(const EventQueue& q, const HandlerMap& handlers) {
  snapshot::Writer w;
  w.begin_chunk(snapshot::chunk_id("ENGN"));
  q.save(w, handlers);
  w.end_chunk();
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  EXPECT_TRUE(reader.has_value()) << error;
  reader->open_chunk(snapshot::chunk_id("ENGN"));
  return std::move(*reader);
}

TEST(EngineSnapshot, TimersSurviveWithExactOrder) {
  EventQueue q;
  RecordingHandler handler(q);
  HandlerMap handlers;
  handlers.timers.push_back(&handler);

  // Ties at t=50 must fire in schedule order; the far-future timer
  // lands in the overflow tier; the chain keeps spawning post-restore.
  q.schedule_timer(50, {&handler, 1, 10, 0});
  q.schedule_timer(50, {&handler, 2, 20, 0});
  q.schedule_timer(30, {&handler, RecordingHandler::kChainTag, 3, 0});
  q.schedule_timer(10'000'000, {&handler, 3, 30, 0});
  q.run_until(40);
  const std::size_t pre = handler.fired.size();

  auto reader = saved(q, handlers);
  EventQueue restored;
  RecordingHandler handler2(restored);
  HandlerMap handlers2;
  handlers2.timers.push_back(&handler2);
  restored.restore(reader, handlers2);
  reader.close_chunk();

  EXPECT_EQ(restored.now(), q.now());
  EXPECT_EQ(restored.size(), q.size());
  EXPECT_EQ(restored.events_run(), q.events_run());

  q.run_until(20'000'000);
  restored.run_until(20'000'000);
  EXPECT_EQ(handler2.fired,
            Fired(handler.fired.begin() + static_cast<std::ptrdiff_t>(pre), handler.fired.end()));
  EXPECT_EQ(restored.events_run(), q.events_run());
}

TEST(EngineSnapshot, RejectsUnknownEventTypes) {
  // 6 was the retired closure event; 0xFF was never assigned.  Either
  // must stop the restore instead of misparsing every byte after it.
  for (const std::uint8_t type : {std::uint8_t{6}, std::uint8_t{0xFF}}) {
    snapshot::Writer w;
    w.begin_chunk(snapshot::chunk_id("ENGN"));
    w.put_i64(0);   // now
    w.put_u64(1);   // next seq
    w.put_u64(0);   // events run
    w.put_u64(1);   // one pending entry: (time, stamp, seq, type)
    w.put_i64(10);
    w.put_u64(0);
    w.put_u64(0);
    w.put_u8(type);
    w.end_chunk();
    std::string error;
    auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
    ASSERT_TRUE(reader.has_value()) << error;
    reader->open_chunk(snapshot::chunk_id("ENGN"));
    EventQueue q;
    try {
      q.restore(*reader, HandlerMap{});
      ADD_FAILURE() << "type byte " << int{type} << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string expected = "unknown event type " + std::to_string(type);
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
    }
  }
}

TEST(EngineSnapshot, RefusesRestoreIntoUsedEngine) {
  EventQueue q;
  RecordingHandler handler(q);
  HandlerMap handlers;
  handlers.timers.push_back(&handler);
  q.schedule_timer(10, {&handler, 1, 0, 0});
  auto reader = saved(q, handlers);

  EventQueue used;
  RecordingHandler handler2(used);
  used.schedule_timer(1, {&handler2, 1, 0, 0});
  used.run_until(2);
  HandlerMap handlers2;
  handlers2.timers.push_back(&handler2);
  EXPECT_THROW(used.restore(reader, handlers2), std::invalid_argument);
}

TEST(EngineSnapshot, UnregisteredHandlerIsRejectedAtSave) {
  EventQueue q;
  RecordingHandler handler(q);
  q.schedule_timer(10, {&handler, 1, 0, 0});
  snapshot::Writer w;
  w.begin_chunk(snapshot::chunk_id("ENGN"));
  // Empty handler map: the pending timer's handler has no index.
  EXPECT_THROW(q.save(w, HandlerMap{}), std::invalid_argument);
}

TEST(EngineSnapshot, SequencePreservationAcrossMixedTiers) {
  // Schedule across all three tiers (active window, wheel, overflow) at
  // one shared time tick per tier, then prove the restored engine fires
  // them in the original schedule order.
  EventQueue q;
  RecordingHandler handler(q);
  HandlerMap handlers;
  handlers.timers.push_back(&handler);
  const TimePs times[] = {1, 5'000, 1, 3'000'000, 5'000, 1};
  for (std::uint64_t i = 0; i < 6; ++i) {
    q.schedule_timer(times[i], {&handler, 4, i, 0});
  }
  auto reader = saved(q, handlers);
  EventQueue restored;
  RecordingHandler handler2(restored);
  HandlerMap handlers2;
  handlers2.timers.push_back(&handler2);
  restored.restore(reader, handlers2);
  reader.close_chunk();
  restored.run_until(4'000'000);
  q.run_until(4'000'000);
  ASSERT_EQ(handler2.fired.size(), 6u);
  EXPECT_EQ(handler2.fired, handler.fired);
  // Ties at t=1 fired as scheduled: operands 0, 2, 5.
  EXPECT_EQ(std::get<2>(handler2.fired[0]), 0u);
  EXPECT_EQ(std::get<2>(handler2.fired[1]), 2u);
  EXPECT_EQ(std::get<2>(handler2.fired[2]), 5u);
}

}  // namespace
}  // namespace quartz::sim
