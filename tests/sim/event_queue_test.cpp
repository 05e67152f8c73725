#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
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
  // The handler holds its own slot while it schedules the next packet,
  // so the chain needs two slots, not one: each new event takes the
  // slot the previous dispatch released once its handler returned.
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
  EXPECT_EQ(q.packet_pool_capacity(), 2u);
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

// --- in-place packet dispatch -----------------------------------------------

/// A seeded packet mix whose hop delays land in all three tiers: the
/// active window (< 4 ns), the wheel (< ~2 us) and the overflow heap
/// beyond the wheel's horizon.  Each hop re-keys the packet either in
/// place (rearm_packet) or as a copy through schedule_packet; fresh
/// packets and timers are injected before and after the re-key, so
/// sequence numbers interleave with it.  Same-time ties are frequent
/// (small delays, four stamps).
class SeededMix final : public EventHandler, public TimerHandler {
 public:
  struct Fired {
    EventType type;
    std::uint64_t id;
    TimePs at;
    int hops;
    bool operator==(const Fired& o) const {
      return type == o.type && id == o.id && at == o.at && hops == o.hops;
    }
  };

  explicit SeededMix(bool in_place) : in_place_(in_place), rng_(0x5EEDED) {
    queue_.set_handler(this);
  }

  std::vector<Fired> run() {
    for (int i = 0; i < 64; ++i) inject();
    while (!queue_.empty()) queue_.run_one();
    return fired_;
  }
  std::size_t packet_slots() const { return queue_.packet_pool_capacity(); }
  std::uint64_t far_hops() const { return far_hops_; }

 private:
  static constexpr std::uint64_t kPackets = 20'000;
  static constexpr TimePs kWheelHorizon = TimePs{512} << 12;

  TimePs delay() {
    switch (rng_.next_below(3)) {
      case 0: return static_cast<TimePs>(rng_.next_below(4096));
      case 1: return 4096 + static_cast<TimePs>(rng_.next_below(2'000'000));
      default: return 2 * kWheelHorizon + static_cast<TimePs>(rng_.next_below(20'000'000));
    }
  }
  std::uint64_t stamp() { return rng_.next_below(4); }

  void inject() {
    if (next_id_ >= kPackets) return;
    PacketEvent pe;
    pe.packet.id = next_id_++;
    pe.t0 = queue_.now() + delay();
    queue_.schedule_packet(pe.t0, EventType::kHeaderDecision, pe, stamp());
  }

  void on_packet_event(EventType type, PacketEvent& event) override {
    const TimePs now = queue_.now();
    fired_.push_back({type, event.packet.id, now, event.packet.hops});
    EXPECT_EQ(event.t0, now);
    if (rng_.next_below(4) == 0) inject();
    if (rng_.next_below(8) == 0) queue_.schedule_timer(now + delay(), {this});
    if (type == EventType::kDelivery) return;
    ++event.packet.hops;
    event.t0 = now + delay();
    if (event.t0 - now > kWheelHorizon) ++far_hops_;
    const EventType next = event.packet.hops >= 5 ? EventType::kDelivery
                           : type == EventType::kHeaderDecision ? EventType::kTransmitComplete
                                                                : EventType::kHeaderDecision;
    if (in_place_) {
      queue_.rearm_packet(event.t0, next, stamp());
    } else {
      queue_.schedule_packet(event.t0, next, event, stamp());
    }
    if (rng_.next_below(4) == 0) inject();
  }
  void on_fault_event(const FaultEvent&) override {}
  void on_timer(const TimerEvent&) override {
    fired_.push_back({EventType::kTimer, 0, queue_.now(), 0});
    inject();
  }

  bool in_place_;
  Rng rng_;
  EventQueue queue_;
  std::uint64_t next_id_ = 0;
  std::uint64_t far_hops_ = 0;
  std::vector<Fired> fired_;
};

TEST(EventQueue, RearmedSlotsFireInCopyAndScheduleOrder) {
  SeededMix in_place(/*in_place=*/true);
  SeededMix copied(/*in_place=*/false);
  const std::vector<SeededMix::Fired> a = in_place.run();
  const std::vector<SeededMix::Fired> b = copied.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i] == b[i]) << "dispatch " << i << " diverged: id " << a[i].id << " at "
                              << a[i].at << " vs id " << b[i].id << " at " << b[i].at;
  }
  EXPECT_GT(a.size(), 100'000u);
  EXPECT_GT(in_place.far_hops(), 1000u);  // the overflow heap was exercised
  // Holding the slot instead of copying it never needs more slots.
  EXPECT_LE(in_place.packet_slots(), copied.packet_slots());
}

constexpr int kFlood = 2000;
constexpr std::uint64_t kFloodTag = 0xFEEDFACE;

TEST(EventQueue, HeldSlotSurvivesPoolGrowthInItsOwnHandler) {
  // The handler holds a reference into the packet pool while it
  // schedules many more packets than the pool has slots, then reads and
  // writes its own event.  Pool blocks never move, so the reference
  // stays valid; a relocating pool would be a use-after-free here.
  class Flood : public EventHandler {
   public:
    explicit Flood(EventQueue& queue) : queue_(queue) { queue.set_handler(this); }
    void on_packet_event(EventType type, PacketEvent& event) override {
      if (event.packet.id != 0) {
        ++others;
        return;
      }
      if (type == EventType::kHeaderDecision) {
        for (int i = 0; i < kFlood; ++i) {
          PacketEvent pe;
          pe.packet.id = static_cast<std::uint64_t>(1 + i);
          queue_.schedule_packet(queue_.now() + 1 + i, EventType::kDelivery, pe);
        }
        EXPECT_EQ(event.packet.tag, kFloodTag);
        EXPECT_EQ(event.t0, 5);
        event.packet.hops = 7;
        event.t0 = queue_.now() + kFlood + 1;
        queue_.rearm_packet(event.t0, EventType::kDelivery);
        return;
      }
      delivered_hops = event.packet.hops;
      delivered_t0 = event.t0;
    }
    void on_fault_event(const FaultEvent&) override {}
    int others = 0;
    int delivered_hops = -1;
    TimePs delivered_t0 = -1;

   private:
    EventQueue& queue_;
  };

  EventQueue q;
  Flood flood(q);
  PacketEvent pe;
  pe.packet.id = 0;
  pe.packet.tag = kFloodTag;
  pe.t0 = 5;
  q.schedule_packet(5, EventType::kHeaderDecision, pe);
  q.run_until(10 * kFlood);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(flood.others, kFlood);
  EXPECT_EQ(flood.delivered_hops, 7);
  EXPECT_EQ(flood.delivered_t0, 5 + kFlood + 1);
  EXPECT_EQ(q.packet_pool_capacity(), static_cast<std::size_t>(kFlood) + 1);
}

TEST(EventQueue, RearmOutsideAPacketDispatchIsRejected) {
  EventQueue q;
  RecordingHandler handler(q);
  EXPECT_THROW(q.rearm_packet(1, EventType::kDelivery), std::logic_error);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace quartz::sim
