// Allocation-freedom contract of the typed event engine, enforced with
// a counting operator-new hook (which is why this suite lives in its
// own test binary: the hook is global to the process).
//
// The engine recycles POD slots through free lists and schedules
// through a two-tier calendar, so once a warm run has grown the slot
// pools and heap storage to their high-water mark, a steady-state
// simulation of the same shape must not allocate at all.  The replay
// is Fig. 18-shaped: Poisson-like arrivals, then per-hop header
// decision / transmit complete chains, then delivery.  Its speed is
// measured by the bench/suite workloads (engine.ns_per_event), not here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "support/counting_new.hpp"

namespace quartz::sim {
namespace {

using test::alloc_count;

// Local traffic: 64 concurrent flows each inject a packet every 200 ns,
// and every packet rides 1-3 switch hops (header decision + transmit
// complete per hop) before delivery, so a few hundred events are always
// in flight — the heap depth of a real Fig. 18 run.
constexpr TimePs kArrivalGap = 200 * kNanosecond;
constexpr TimePs kDecisionDelay = 150 * kNanosecond;
constexpr TimePs kLinkDelay = 500 * kNanosecond;
constexpr TimePs kHostOverhead = 250 * kNanosecond;
constexpr int kFlows = 64;
constexpr TimePs kFlowStagger = kArrivalGap / kFlows;

int hops_for(std::uint64_t id) { return 1 + static_cast<int>(id % 3); }

class TypedReplay final : public EventHandler, public TimerHandler {
 public:
  TypedReplay() { queue_.set_handler(this); }

  void run(std::uint64_t packets) {
    remaining_ = packets;
    for (int flow = 0; flow < kFlows; ++flow) {
      queue_.schedule_timer(queue_.now() + kArrivalGap + flow * kFlowStagger, {this});
    }
    while (!queue_.empty()) queue_.run_one();
  }

  std::uint64_t events_run() const { return queue_.events_run(); }
  std::uint64_t delivered() const { return delivered_; }
  std::size_t packet_slots() const { return queue_.packet_pool_capacity(); }

 private:
  /// One flow's packet arrival; chains the flow's next.
  void on_timer(const TimerEvent&) override {
    if (remaining_ == 0) return;  // the other flows drained the budget
    const std::uint64_t id = next_id_++;
    --remaining_;
    PacketEvent event;
    event.packet.id = id;
    event.packet.created = queue_.now();
    event.t0 = queue_.now() + kDecisionDelay;
    queue_.schedule_packet(event.t0, EventType::kHeaderDecision, event);
    if (remaining_ > 0) queue_.schedule_timer(queue_.now() + kArrivalGap, {this});
  }

  void on_packet_event(EventType type, PacketEvent& event) override {
    const TimePs now = queue_.now();
    switch (type) {
      case EventType::kHeaderDecision:
        event.t0 = now + kLinkDelay;
        queue_.schedule_packet(event.t0, EventType::kTransmitComplete, event);
        return;
      case EventType::kTransmitComplete:
        ++event.packet.hops;
        if (event.packet.hops < hops_for(event.packet.id)) {
          event.t0 = now + kDecisionDelay;
          queue_.schedule_packet(event.t0, EventType::kHeaderDecision, event);
        } else {
          event.t0 = now + kHostOverhead;
          queue_.schedule_packet(event.t0, EventType::kDelivery, event);
        }
        return;
      case EventType::kDelivery:
        ++delivered_;
        return;
      default:
        FAIL() << "unexpected event type in replay";
    }
  }
  void on_fault_event(const FaultEvent&) override {}

  EventQueue queue_;
  std::uint64_t remaining_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
};

TEST(EngineAllocation, WarmTypedReplayAllocatesNothing) {
  constexpr std::uint64_t kWarmPackets = 20'000;
  constexpr std::uint64_t kPackets = 300'000;
  TypedReplay replay;
  replay.run(kWarmPackets);
  const std::uint64_t warm_events = replay.events_run();

  const std::uint64_t before = alloc_count();
  replay.run(kPackets);
  const std::uint64_t allocs = alloc_count() - before;

  EXPECT_EQ(replay.delivered(), kWarmPackets + kPackets);
  // Each packet is an arrival timer, two events per hop (1-3 hops) and
  // a delivery: 4 to 8 events.
  EXPECT_GE(replay.events_run() - warm_events, 4 * kPackets);
  EXPECT_EQ(allocs, 0u) << "the warm typed engine allocated in steady state";
}

TEST(EngineAllocation, ColdBurstAllocatesLogarithmically) {
  // A cold engine grows its free lists, heaps and wheel-node array by
  // doubling and its slot pools by fixed-size blocks, so a Fig. 18-shaped
  // burst costs a handful of allocations per doubling of its high-water
  // mark, not one or more per calendar bucket it touches (the wheel has
  // 512, and this burst touches every one).
  const std::uint64_t before = alloc_count();
  TypedReplay replay;
  replay.run(20'000);
  const std::uint64_t allocs = alloc_count() - before;
  const std::size_t high_water = replay.packet_slots();
  ASSERT_GT(high_water, 100u);
  EXPECT_LE(allocs, 6 * std::bit_width(high_water))
      << "high-water mark " << high_water << " packet slots";
}

}  // namespace
}  // namespace quartz::sim
