// Engine allocation bar: the typed pooled event queue on a Fig.
// 18-shaped replay (Poisson arrivals -> per-hop header-decision /
// transmit-complete chains -> delivery).  Counts allocations/event via
// a counting operator-new hook and enforces zero steady-state
// allocations; events/sec is reported, not gated.  Speed is judged by
// the bench/suite workloads against their committed baselines.
#include "report.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "common/check.hpp"
#include "sim/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

// Counting allocator hook: every heap allocation in this binary bumps
// the counter, so a region's allocation cost is a simple delta.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace quartz;

// --- the Fig. 18-shaped replay ----------------------------------------------
//
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

class TypedReplay final : public sim::EventHandler, public sim::TimerHandler {
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
  const sim::EventQueue& engine() const { return queue_; }

 private:
  /// One flow's packet arrival; chains the flow's next.
  void on_timer(const sim::TimerEvent&) override {
    if (remaining_ == 0) return;  // the other flows drained the budget
    const std::uint64_t id = next_id_++;
    --remaining_;
    sim::PacketEvent event;
    event.packet.id = id;
    event.packet.created = queue_.now();
    event.t0 = queue_.now() + kDecisionDelay;
    queue_.schedule_packet(event.t0, sim::EventType::kHeaderDecision, event);
    if (remaining_ > 0) queue_.schedule_timer(queue_.now() + kArrivalGap, {this});
  }

  void on_packet_event(sim::EventType type, sim::PacketEvent& event) override {
    const TimePs now = queue_.now();
    switch (type) {
      case sim::EventType::kHeaderDecision:
        event.t0 = now + kLinkDelay;
        queue_.schedule_packet(event.t0, sim::EventType::kTransmitComplete, event);
        return;
      case sim::EventType::kTransmitComplete:
        ++event.packet.hops;
        if (event.packet.hops < hops_for(event.packet.id)) {
          event.t0 = now + kDecisionDelay;
          queue_.schedule_packet(event.t0, sim::EventType::kHeaderDecision, event);
        } else {
          event.t0 = now + kHostOverhead;
          queue_.schedule_packet(event.t0, sim::EventType::kDelivery, event);
        }
        return;
      case sim::EventType::kDelivery:
        ++delivered_;
        return;
      default:
        QUARTZ_CHECK(false, "unexpected event type in replay");
    }
  }
  void on_fault_event(const sim::FaultEvent&) override {}

  sim::EventQueue queue_;
  std::uint64_t remaining_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
};

struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double seconds = 0;
  double events_per_sec() const { return seconds > 0 ? events / seconds : 0; }
  double allocs_per_event() const { return events > 0 ? static_cast<double>(allocs) / events : 0; }
};

template <typename Fn>
RunStats timed(Fn&& fn) {
  RunStats stats;
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  stats.events = fn();
  const auto stop = std::chrono::steady_clock::now();
  stats.allocs = alloc_count() - allocs_before;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  return stats;
}

constexpr std::uint64_t kWarmPackets = 20'000;
constexpr std::uint64_t kPackets = 300'000;

void report() {
  bench::Report::instance().open(
      "engine", "Typed pooled event engine on a Fig. 18-shaped replay");

  // The typed engine is measured in steady state: a warm run grows the
  // slot pools and heap storage to their high-water mark, then the
  // measured run must not allocate at all.
  TypedReplay typed_replay;
  typed_replay.run(kWarmPackets);
  const std::uint64_t warm_events = typed_replay.events_run();
  const RunStats typed = timed([&] {
    typed_replay.run(kPackets);
    return typed_replay.events_run() - warm_events;
  });
  QUARTZ_CHECK(typed_replay.delivered() == kWarmPackets + kPackets,
               "typed replay must deliver every packet");

  Table table({"engine", "events", "events/sec (M)", "allocations", "allocs/event"});
  char eps[16], ape[16];
  std::snprintf(eps, sizeof(eps), "%.2f", typed.events_per_sec() / 1e6);
  std::snprintf(ape, sizeof(ape), "%.3f", typed.allocs_per_event());
  table.add_row({"typed pooled engine", std::to_string(typed.events), eps,
                 std::to_string(typed.allocs), ape});
  bench::Report::instance().add_table("engine_microbench", table);
  std::printf("typed steady-state allocations: %llu; pool high-water: "
              "%zu packet slots, %zu timer slots\n",
              static_cast<unsigned long long>(typed.allocs),
              typed_replay.engine().packet_pool_capacity(),
              typed_replay.engine().timer_pool_capacity());
  bench::Report::instance().add_row(
      "engine_summary",
      {{"typed_events_per_sec", typed.events_per_sec()},
       {"typed_steady_state_allocs", static_cast<std::int64_t>(typed.allocs)},
       {"typed_allocs_per_event", typed.allocs_per_event()},
       {"events_per_run", static_cast<std::int64_t>(typed.events)}});

  QUARTZ_CHECK(typed.allocs == 0,
               "the typed engine must run the warm Fig. 18 replay with zero allocations");
  std::printf("check: steady-state allocations == 0\n");
  bench::print_note(
      "the typed engine recycles POD slots through free lists and schedules "
      "through a two-tier calendar (O(1) bucket appends, exact ordering in a "
      "window-sized heap), so a warm steady-state simulation never allocates");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
