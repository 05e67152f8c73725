#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "support/closure_timer.hpp"

namespace quartz::sim {
namespace {

using Closures = test::ClosureTimer<EventQueue>;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  Closures timers(q);
  std::vector<int> order;
  timers.at(30, [&] { order.push_back(3); });
  timers.at(10, [&] { order.push_back(1); });
  timers.at(20, [&] { order.push_back(2); });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  Closures timers(q);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    timers.at(5, [&order, i] { order.push_back(i); });
  }
  q.run_until(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  Closures timers(q);
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) timers.after(10, chain);
  };
  timers.at(0, chain);
  q.run_until(1000);
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  Closures timers(q);
  int fired = 0;
  timers.at(10, [&] { ++fired; });
  timers.at(20, [&] { ++fired; });
  q.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15);
  q.run_until(20);  // boundary inclusive
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CannotScheduleIntoThePast) {
  EventQueue q;
  Closures timers(q);
  q.run_until(100);
  EXPECT_THROW(timers.at(50, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunOneAdvancesClock) {
  EventQueue q;
  Closures timers(q);
  timers.at(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  q.run_one();
  EXPECT_EQ(q.now(), 42);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.run_one(), std::invalid_argument);
}

TEST(EventQueue, SizeTracksPending) {
  EventQueue q;
  Closures timers(q);
  timers.at(1, [] {});
  timers.at(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.run_one();
  EXPECT_EQ(q.size(), 1u);
}

// --- typed events -----------------------------------------------------------

/// Records every typed event it receives, in dispatch order.
class RecordingHandler : public EventHandler {
 public:
  struct Record {
    EventType type;
    std::uint64_t id;
    TimePs at;
  };

  explicit RecordingHandler(EventQueue& queue) : queue_(queue) { queue.set_handler(this); }

  void on_packet_event(EventType type, PacketEvent& event) override {
    records.push_back({type, event.packet.id, queue_.now()});
  }
  void on_fault_event(const FaultEvent& event) override {
    records.push_back({EventType::kFaultTransition, event.link_seq, queue_.now()});
  }

  std::vector<Record> records;

 private:
  EventQueue& queue_;
};

class RecordingTimerHandler : public TimerHandler {
 public:
  void on_timer(const TimerEvent& event) override { timers.push_back(event); }
  std::vector<TimerEvent> timers;
};

TEST(EventQueue, TypedEventsInterleaveWithCallbacksInTimeOrder) {
  EventQueue q;
  RecordingHandler handler(q);
  RecordingTimerHandler timer_handler;
  Closures closures(q);
  std::vector<std::string> order;

  PacketEvent pe;
  pe.packet.id = 1;
  q.schedule_packet(30, EventType::kDelivery, pe);
  closures.at(10, [&order] { order.push_back("callback"); });
  q.schedule_fault(20, FaultEvent{3, 7, true});
  q.schedule_timer(25, {&timer_handler, 2, 5, 0});

  q.run_until(100);
  ASSERT_EQ(handler.records.size(), 2u);
  EXPECT_EQ(handler.records[0].type, EventType::kFaultTransition);
  EXPECT_EQ(handler.records[0].at, 20);
  EXPECT_EQ(handler.records[1].type, EventType::kDelivery);
  EXPECT_EQ(handler.records[1].at, 30);
  EXPECT_EQ(order, (std::vector<std::string>{"callback"}));
  ASSERT_EQ(timer_handler.timers.size(), 1u);
  EXPECT_EQ(timer_handler.timers[0].tag, 2u);
  EXPECT_EQ(timer_handler.timers[0].a, 5u);
  EXPECT_EQ(q.events_run(), 4u);
}

TEST(EventQueue, SameTimeTypedEventsKeepScheduleOrder) {
  EventQueue q;
  RecordingHandler handler(q);
  for (std::uint64_t i = 0; i < 8; ++i) {
    PacketEvent pe;
    pe.packet.id = i;
    q.schedule_packet(50, i % 2 == 0 ? EventType::kHeaderDecision : EventType::kDelivery, pe);
  }
  q.run_until(50);
  ASSERT_EQ(handler.records.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(handler.records[i].id, i);
}

TEST(EventQueue, SchedulePacketRejectsNonPacketTypes) {
  EventQueue q;
  RecordingHandler handler(q);
  EXPECT_THROW(q.schedule_packet(1, EventType::kFaultTransition, PacketEvent{}),
               std::logic_error);
  EXPECT_THROW(q.schedule_packet(1, EventType::kTimer, PacketEvent{}), std::logic_error);
}

TEST(EventQueue, TimerEventsRequireAHandler) {
  EventQueue q;
  EXPECT_THROW(q.schedule_timer(1, TimerEvent{}), std::invalid_argument);
}

TEST(EventQueue, PoolCapacityPlateausUnderRecycling) {
  EventQueue q;
  RecordingHandler handler(q);
  // Keep exactly 4 packet events in flight for many rounds: the pool
  // must grow to the in-flight high-water mark and then stop.
  for (std::uint64_t i = 0; i < 4; ++i) {
    PacketEvent pe;
    pe.packet.id = i;
    q.schedule_packet(static_cast<TimePs>(1 + i), EventType::kDelivery, pe);
  }
  for (int round = 0; round < 1000; ++round) {
    const TimePs horizon = q.next_time();
    q.run_one();
    PacketEvent pe;
    pe.packet.id = static_cast<std::uint64_t>(round);
    q.schedule_packet(horizon + 4, EventType::kDelivery, pe);
  }
  EXPECT_EQ(q.packet_pool_capacity(), 4u);
  EXPECT_EQ(handler.records.size(), 1000u);
}

TEST(EventQueue, HandlersMayScheduleReentrantlyIntoRecycledSlots) {
  EventQueue q;
  // The slot is released before dispatch, so a handler scheduling a new
  // event of the same type reuses the slot it is being dispatched from;
  // the payload it sees must be the popped copy, not the recycled slot.
  class Chained : public EventHandler {
   public:
    explicit Chained(EventQueue& queue) : queue_(queue) { queue.set_handler(this); }
    void on_packet_event(EventType, PacketEvent& event) override {
      ids.push_back(event.packet.id);
      if (event.packet.id < 10) {
        PacketEvent next;
        next.packet.id = event.packet.id + 1;
        queue_.schedule_packet(queue_.now() + 1, EventType::kDelivery, next);
      }
    }
    void on_fault_event(const FaultEvent&) override {}
    std::vector<std::uint64_t> ids;

   private:
    EventQueue& queue_;
  } chained(q);

  PacketEvent pe;
  pe.packet.id = 0;
  q.schedule_packet(0, EventType::kDelivery, pe);
  q.run_until(100);
  ASSERT_EQ(chained.ids.size(), 11u);
  for (std::uint64_t i = 0; i <= 10; ++i) EXPECT_EQ(chained.ids[i], i);
  EXPECT_EQ(q.packet_pool_capacity(), 1u);
}

TEST(EventQueue, MillionEventMixedStressKeepsTotalOrder) {
  // Satellite regression for the const_cast-move-from-top() bug the
  // manual heap replaced: a large adversarial mix of all event types
  // must dispatch in exact (time, seq) order with pools plateauing.
  EventQueue q;
  struct OrderCheck : EventHandler {
    void on_packet_event(EventType, PacketEvent& event) override { check(event.t0); }
    void on_fault_event(const FaultEvent&) override {}
    void check(TimePs at) {
      EXPECT_LE(last, at);
      last = at;
      ++seen;
    }
    TimePs last = 0;
    std::uint64_t seen = 0;
  } handler;
  q.set_handler(&handler);
  // Timers carry their due time in `a`.
  struct TimerOrderCheck : TimerHandler {
    void on_timer(const TimerEvent& event) override {
      EXPECT_LE(last, static_cast<TimePs>(event.a));
      last = static_cast<TimePs>(event.a);
      ++seen;
    }
    TimePs last = 0;
    std::uint64_t seen = 0;
  } timers;

  constexpr std::uint64_t kEvents = 1'000'000;
  std::uint64_t state = 0x243F6A8885A308D3ull;  // deterministic pseudo-times
  auto next_u64 = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::uint64_t scheduled = 0;
  while (scheduled < kEvents) {
    // Drain a little between bursts so the heap shrinks and regrows.
    if (scheduled % 10'000 == 0 && !q.empty()) {
      q.run_until(q.next_time() + 1000);
    }
    const TimePs when = q.now() + static_cast<TimePs>(next_u64() % 5000);
    switch (next_u64() % 4) {
      case 0: {
        PacketEvent pe;
        pe.t0 = when;
        q.schedule_packet(when, EventType::kHeaderDecision, pe);
        break;
      }
      case 1: {
        PacketEvent pe;
        pe.t0 = when;
        q.schedule_packet(when, EventType::kDelivery, pe);
        break;
      }
      case 2:
        q.schedule_fault(when, FaultEvent{1, 1, false});
        break;
      default:
        q.schedule_timer(when, {&timers, 0, static_cast<std::uint64_t>(when), 0});
        break;
    }
    ++scheduled;
  }
  q.run_until(q.now() + 10 * kSecond);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.events_run(), kEvents);
  EXPECT_GT(handler.seen, 0u);
  EXPECT_GT(timers.seen, 0u);
  // Pools grew to the in-flight high-water mark, not the event count.
  EXPECT_LT(q.packet_pool_capacity(), kEvents / 2);
}

}  // namespace
}  // namespace quartz::sim
