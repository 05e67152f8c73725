// Sharded-engine units: the partition planner, the SPSC mailbox (incl.
// a concurrent stress), the spin-then-park window barrier, and
// ShardedSim window semantics — with a barrier-boundary tie harness
// that sends packets timed so cross-shard heads land EXACTLY on window
// barriers, the case the strict-window + stamp protocol exists for.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "routing/ecmp.hpp"
#include "routing/oracle.hpp"
#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "sim/partition.hpp"
#include "sim/sharded.hpp"
#include "snapshot/io.hpp"
#include "topo/builders.hpp"
#include "topo/composite.hpp"

namespace quartz {
namespace {

topo::BuiltTopology flat_ring(int switches, int hosts_per_switch) {
  topo::QuartzRingParams params;
  params.switches = switches;
  params.hosts_per_switch = hosts_per_switch;
  return topo::quartz_ring(params);
}

topo::BuiltTopology ring_of_rings(const char* spec_text) {
  const auto spec = topo::CompositeSpec::parse(spec_text);
  EXPECT_TRUE(spec.has_value());
  return topo::build_composite(*spec);
}

TEST(Partition, SingleShardIsUnbounded) {
  const auto topo = flat_ring(8, 1);
  const sim::PartitionPlan plan = sim::plan_partition(topo, 1);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_EQ(plan.strategy, "single");
  EXPECT_TRUE(plan.cross_links.empty());
  EXPECT_EQ(plan.nodes_per_shard[0], static_cast<std::int64_t>(topo.graph.node_count()));
}

TEST(Partition, FlatRingSegments) {
  const auto topo = flat_ring(16, 2);
  const sim::PartitionPlan plan = sim::plan_partition(topo, 4);
  EXPECT_EQ(plan.strategy, "ring-segment");
  EXPECT_FALSE(plan.cross_links.empty());
  EXPECT_GT(plan.lookahead, 0);
  // Hosts follow their attachment switch: no host link may be cut.
  for (const topo::LinkId id : plan.cross_links) {
    const auto& link = topo.graph.link(id);
    EXPECT_TRUE(topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b));
  }
  // Every shard is populated and the population is balanced.
  for (const std::int64_t n : plan.nodes_per_shard) EXPECT_EQ(n, 12);  // 4 switches + 8 hosts
}

TEST(Partition, CompositeBlocksTopLevelElements) {
  const auto topo = ring_of_rings("ring-of-rings:8x4@2");
  const sim::PartitionPlan plan = sim::plan_partition(topo, 4);
  EXPECT_EQ(plan.strategy, "composite");
  ASSERT_NE(topo.composite, nullptr);
  // Two top-level elements per shard; every node of one element lands
  // with its element.
  for (const topo::NodeId sw : topo.graph.switches()) {
    const int group = topo.composite->path_at(sw, 0);
    EXPECT_EQ(plan.owner[static_cast<std::size_t>(sw)], group / 2);
  }
  // Only level-0 trunks are cut, so the lookahead is the trunk
  // propagation (500 ns), not the intra-ring propagation.
  EXPECT_EQ(plan.lookahead, nanoseconds(500));
}

TEST(Partition, RefusesMoreShardsThanElements) {
  const auto composite = ring_of_rings("ring-of-rings:4x4@1");
  EXPECT_THROW(sim::plan_partition(composite, 5), std::invalid_argument);
  const auto flat = flat_ring(4, 1);
  EXPECT_THROW(sim::plan_partition(flat, 5), std::invalid_argument);
}

TEST(Partition, LayoutDigestDistinguishesLayouts) {
  const auto topo = flat_ring(16, 2);
  const auto a = sim::plan_partition(topo, 2);
  const auto b = sim::plan_partition(topo, 4);
  EXPECT_NE(a.layout_digest(), b.layout_digest());
  EXPECT_EQ(a.layout_digest(), sim::plan_partition(topo, 2).layout_digest());
}

TEST(ShardStamp, NonZeroAndIdDetermined) {
  EXPECT_NE(sim::shard_stamp(0), 0u);
  EXPECT_NE(sim::shard_stamp(1), sim::shard_stamp(2));
  EXPECT_EQ(sim::shard_stamp(7), sim::shard_stamp(7));
  EXPECT_EQ(sim::shard_stamp(42) & 1, 1u);
}

TEST(Mailbox, PreservesOrderAcrossChunks) {
  sim::Mailbox box;
  // More than one chunk's worth to force chunk linking + retirement.
  const int n = 1500;
  for (int i = 0; i < n; ++i) {
    sim::PacketEvent event;
    event.packet.id = static_cast<std::uint64_t>(i);
    box.push(event, TimePs{i}, sim::shard_stamp(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(box.posted(), static_cast<std::uint64_t>(n));
  std::vector<std::uint64_t> seen;
  box.drain([&seen](const sim::Mailbox::Entry& entry) { seen.push_back(entry.event.packet.id); });
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, ConcurrentProducerConsumerStress) {
  sim::Mailbox box;
  constexpr std::uint64_t kTotal = 200000;
  std::thread producer([&box] {
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      sim::PacketEvent event;
      event.packet.id = i;
      box.push(event, static_cast<TimePs>(i), sim::shard_stamp(i));
    }
  });
  std::uint64_t next = 0;
  while (next < kTotal) {
    box.drain([&next](const sim::Mailbox::Entry& entry) {
      // In-order, no loss, no duplication — even while the producer is
      // concurrently appending and linking fresh chunks.
      ASSERT_EQ(entry.event.packet.id, next);
      ASSERT_EQ(entry.stamp, sim::shard_stamp(next));
      ++next;
    });
  }
  producer.join();
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.consumed(), kTotal);
}

// ---------------------------------------------------------------------------
// WindowBarrier.
//
// Every thread writes its own plain (non-atomic) slot before arriving
// and reads every slot after leaving, so an early release shows up as a
// stale slot here and as a data race under TSan.  A second crossing per
// phase keeps the next phase's writes off the slots still being read.
// With `stall_every` > 0, thread 0 sleeps 200 us before arriving every
// that many phases: the others exhaust their spin and park, so a lost
// wake-up hangs the test instead of passing it.
void barrier_stress(int stall_every) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 20000;
  sim::WindowBarrier barrier(kThreads);
  std::vector<int> slots(kThreads, -1);
  std::atomic<int> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int phase = 0; phase < kPhases; ++phase) {
        slots[static_cast<std::size_t>(t)] = phase;
        if (stall_every > 0 && t == 0 && phase % stall_every == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        barrier.arrive_and_wait();
        for (const int slot : slots) {
          if (slot != phase) stale.fetch_add(1, std::memory_order_relaxed);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(stale.load(), 0);
}

TEST(WindowBarrier, NoEarlyRelease) { barrier_stress(0); }

TEST(WindowBarrier, NoEarlyReleaseWhenWaitersPark) { barrier_stress(500); }

TEST(WindowBarrier, ParksAtOnceWhenPartiesOutnumberCpus) {
#if defined(__linux__)
  bool spins = true;
  std::thread pinned([&spins] {
    cpu_set_t set;
    ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ASSERT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
    spins = sim::WindowBarrier(4).spins();
  });
  pinned.join();
  EXPECT_FALSE(spins);
  EXPECT_TRUE(sim::WindowBarrier(1).spins());
#else
  GTEST_SKIP() << "CPU affinity masks are Linux-only";
#endif
}

// ---------------------------------------------------------------------------
// Barrier-boundary ties.
//
// Flat ring, every switch-to-switch propagation equal to the partition
// lookahead W.  Each host sends on an exact multiple of W, so every
// cross-shard head arrival lands EXACTLY on a window barrier — the
// adversarial case: the entry must be deferred to the next window and
// then interleaved with local same-time events purely by stamp.  The
// delivery digest must still match the single-shard reference.

struct TieRecord {
  TimePs when = 0;
  std::uint64_t id = 0;
};

class TieShard final : public sim::Shard, public sim::TimerHandler {
 public:
  /// With `fail_at` >= 0, shard 1 throws from a timer at that time.
  TieShard(const topo::BuiltTopology& topo, const routing::EcmpRouting& routing,
           const sim::ShardContext& ctx, TimePs gap, int packets, TimePs fail_at = -1)
      : topo_(topo),
        oracle_(routing),
        net_(topo, oracle_),
        gap_(gap),
        packets_(packets),
        fail_at_(ctx.shard == 1 ? fail_at : -1) {
    net_.bind_shard(ctx.binding);
    task_ = net_.new_task([this](const sim::Packet& p, TimePs) {
      records_.push_back({net_.now(), p.id});
    });
  }

  sim::Network& network() override { return net_; }
  const std::vector<TieRecord>& records() const { return records_; }

  void arm() {
    const auto& hosts = topo_.hosts;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!net_.owns_node(hosts[i])) continue;
      // Aligned start: every send lands on a multiple of the gap.
      net_.schedule_timer(0, {this, 1, i, 0});
    }
    if (fail_at_ >= 0) net_.schedule_timer(fail_at_, {this, 2, 0, 0});
  }

 private:
  void on_timer(const sim::TimerEvent& event) override {
    if (event.tag == 2) throw std::runtime_error("injected timer fault");
    const std::uint64_t i = event.a;
    const std::uint64_t k = event.b;
    const auto& hosts = topo_.hosts;
    // Fixed pairing with the diametrically opposite host: guaranteed
    // cross-shard at every shard count > 1.
    const std::size_t n = hosts.size();
    const std::size_t dst = (static_cast<std::size_t>(i) + n / 2) % n;
    net_.send(hosts[static_cast<std::size_t>(i)], hosts[dst], bytes(125), task_,
              i * 1000 + k);
    if (k + 1 < static_cast<std::uint64_t>(packets_)) {
      net_.schedule_timer(gap_ * static_cast<TimePs>(k + 1), {this, 1, i, k + 1});
    }
  }

  const topo::BuiltTopology& topo_;
  routing::EcmpOracle oracle_;
  sim::Network net_;
  TimePs gap_;
  int packets_;
  TimePs fail_at_;
  int task_ = -1;
  std::vector<TieRecord> records_;
};

std::uint64_t tie_digest(const topo::BuiltTopology& topo, const routing::EcmpRouting& routing,
                         int shards, TimePs gap, int packets, TimePs horizon) {
  sim::ShardedSim sharded(
      sim::plan_partition(topo, shards),
      [&](const sim::ShardContext& ctx) -> std::unique_ptr<sim::Shard> {
        return std::make_unique<TieShard>(topo, routing, ctx, gap, packets);
      });
  std::vector<std::unique_ptr<TieShard>> dummy;  // keep type visible
  sharded.visit([](int, sim::Shard& shard) { static_cast<TieShard&>(shard).arm(); });
  sharded.run_until(horizon);
  // Merge per-shard records by (time, stamp) — the engine's own order.
  std::vector<TieRecord> all;
  sharded.visit([&all](int, sim::Shard& shard) {
    const auto& recs = static_cast<TieShard&>(shard).records();
    all.insert(all.end(), recs.begin(), recs.end());
  });
  std::sort(all.begin(), all.end(), [](const TieRecord& a, const TieRecord& b) {
    if (a.when != b.when) return a.when < b.when;
    return sim::shard_stamp(a.id) < sim::shard_stamp(b.id);
  });
  std::uint64_t digest = 14695981039346656037ull;
  for (const TieRecord& rec : all) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(rec.when), rec.id}) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (v >> (8 * byte)) & 0xFF;
        digest *= 1099511628211ull;
      }
    }
  }
  EXPECT_GT(all.size(), 0u);
  return digest;
}

TEST(ShardedSim, BarrierBoundaryTiesMatchSerial) {
  const auto topo = flat_ring(8, 1);
  const routing::EcmpRouting routing(topo.graph);
  const sim::PartitionPlan probe = sim::plan_partition(topo, 2);
  // The send cadence IS the lookahead: heads of cross-shard hops land
  // exactly on barrier times.
  const TimePs gap = probe.lookahead;
  const int packets = 40;
  const TimePs horizon = gap * 200;
  const std::uint64_t serial = tie_digest(topo, routing, 1, gap, packets, horizon);
  EXPECT_EQ(tie_digest(topo, routing, 2, gap, packets, horizon), serial);
  EXPECT_EQ(tie_digest(topo, routing, 4, gap, packets, horizon), serial);
}

TEST(ShardedSim, CrossShardTrafficUsesMailboxes) {
  const auto topo = flat_ring(8, 1);
  const routing::EcmpRouting routing(topo.graph);
  sim::ShardedSim sharded(
      sim::plan_partition(topo, 2),
      [&](const sim::ShardContext& ctx) -> std::unique_ptr<sim::Shard> {
        return std::make_unique<TieShard>(topo, routing, ctx, nanoseconds(300), 20);
      });
  sharded.visit([](int, sim::Shard& shard) { static_cast<TieShard&>(shard).arm(); });
  sharded.run_until(microseconds(50));
  EXPECT_GT(sharded.mail_posted(), 0u);
  EXPECT_GT(sharded.events_processed(), 0u);
}

TEST(ShardedSim, FailedRunRefusesToContinue) {
  const auto topo = flat_ring(8, 1);
  const routing::EcmpRouting routing(topo.graph);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    sim::ShardedSim sharded(
        sim::plan_partition(topo, shards),
        [&](const sim::ShardContext& ctx) -> std::unique_ptr<sim::Shard> {
          return std::make_unique<TieShard>(topo, routing, ctx, nanoseconds(300), 40,
                                            microseconds(5));
        });
    sharded.visit([](int, sim::Shard& shard) { static_cast<TieShard&>(shard).arm(); });
    // The shard's own error comes back, and the surviving shards'
    // barrier schedule completes instead of deadlocking.
    try {
      sharded.run_until(microseconds(20));
      ADD_FAILURE() << "the injected fault did not propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected timer fault");
    }
    // Mail the failed shard never drained is still in flight; driving
    // the run again must refuse, naming the first failure.
    try {
      sharded.run_until(microseconds(40));
      ADD_FAILURE() << "a failed run was driven again";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("already failed (injected timer fault)"),
                std::string::npos)
          << e.what();
    }
    snapshot::Writer w;
    EXPECT_THROW(sharded.save_layout(w), std::invalid_argument);
    int visited = 0;
    sharded.visit([&visited](int, sim::Shard&) { ++visited; });
    EXPECT_EQ(visited, shards);
  }
}

TEST(ShardedSim, FactoryErrorPropagates) {
  const auto topo = flat_ring(8, 1);
  EXPECT_THROW(
      sim::ShardedSim(sim::plan_partition(topo, 2),
                      [](const sim::ShardContext&) -> std::unique_ptr<sim::Shard> {
                        throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

}  // namespace
}  // namespace quartz
