// Routing microbenchmark: the compiled FIB against the oracle slow path
// on a Quartz ring, walking real packet journeys hop by hop (host ->
// ToR -> mesh -> host port).  Measures routing decisions/sec and
// allocations/decision via a counting operator-new hook, healthy and
// under failure churn, and enforces the allocation bar: zero
// allocations on a warm FIB and on the oracle path.
#include "report.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/check.hpp"
#include "routing/ecmp.hpp"
#include "routing/failure_view.hpp"
#include "routing/fib.hpp"
#include "routing/oracle.hpp"
#include "topo/builders.hpp"

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

// --- the workload ----------------------------------------------------------
//
// A pool of flows over an 8x8 Quartz ring (64 hosts, every pair of the
// 8 ToRs one lightpath).  Each "packet" is walked from source host to
// destination host, asking the routing plane for the next link at
// every node it visits — the exact question Network::transmit asks —
// so decisions/sec here is the per-packet routing cost a simulation
// pays.  Both sides walk the identical flow sequence and must produce
// the identical link checksum.

struct Flow {
  topo::NodeId src;
  topo::NodeId dst;
  std::uint64_t hash;
};

std::vector<Flow> make_flows(const topo::BuiltTopology& topo, std::size_t count) {
  const auto& hosts = topo.hosts;
  std::vector<Flow> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h = routing::mix_hash(i + 1);
    const std::size_t a = h % hosts.size();
    std::size_t b = (h >> 24) % hosts.size();
    if (b == a) b = (b + 1) % hosts.size();
    flows.push_back({hosts[a], hosts[b], h});
  }
  return flows;
}

struct WalkTotals {
  std::uint64_t decisions = 0;
  std::uint64_t checksum = 0;
};

template <typename Decide>
void walk_flow(const topo::Graph& graph, const Flow& flow, Decide&& decide, WalkTotals& totals) {
  routing::FlowKey key;
  key.src = flow.src;
  key.dst = flow.dst;
  key.flow_hash = flow.hash;
  topo::NodeId node = flow.src;
  for (int hop = 0; hop < 16 && node != flow.dst; ++hop) {
    const topo::LinkId link = decide(node, key);
    ++totals.decisions;
    totals.checksum += static_cast<std::uint64_t>(link) * static_cast<std::uint64_t>(hop + 1);
    node = graph.link(link).other(node);
  }
}

template <typename Decide>
WalkTotals walk_rounds(const topo::Graph& graph, const std::vector<Flow>& flows, int rounds,
                       Decide&& decide) {
  WalkTotals totals;
  for (int round = 0; round < rounds; ++round) {
    for (const Flow& flow : flows) walk_flow(graph, flow, decide, totals);
  }
  return totals;
}

/// Same walks, but every `toggle_every` flows one mesh lightpath flips
/// dead/alive — each flip bumps the failure epoch and invalidates the
/// whole FIB, so this measures how fast the compiled plane re-converges
/// (lazy recompiles amortized over the packets between flips).
template <typename Decide>
WalkTotals walk_with_churn(const topo::Graph& graph, const std::vector<Flow>& flows, int rounds,
                           routing::FailureView& view, const std::vector<topo::LinkId>& mesh,
                           std::size_t toggle_every, Decide&& decide) {
  WalkTotals totals;
  std::size_t since_toggle = 0;
  std::size_t toggles = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const Flow& flow : flows) {
      if (++since_toggle == toggle_every) {
        since_toggle = 0;
        const topo::LinkId victim = mesh[toggles % mesh.size()];
        view.set_dead(victim, toggles % (2 * mesh.size()) < mesh.size());
        ++toggles;
      }
      walk_flow(graph, flow, decide, totals);
    }
  }
  // Leave every link alive again so phases are independent.
  for (const topo::LinkId link : mesh) view.set_dead(link, false);
  return totals;
}

struct RunStats {
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  double seconds = 0;
  double decisions_per_sec() const { return seconds > 0 ? decisions / seconds : 0; }
  double allocs_per_decision() const {
    return decisions > 0 ? static_cast<double>(allocs) / decisions : 0;
  }
};

template <typename Fn>
RunStats timed(Fn&& fn) {
  RunStats stats;
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  const WalkTotals totals = fn();
  const auto stop = std::chrono::steady_clock::now();
  stats.decisions = totals.decisions;
  stats.allocs = alloc_count() - allocs_before;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  return stats;
}

constexpr std::size_t kFlowCount = 8192;
constexpr int kRounds = 40;
constexpr int kChurnRounds = 10;
constexpr std::size_t kToggleEvery = 4096;  ///< decisions of amortization per epoch bump

void report() {
  bench::Report::instance().open(
      "routing", "Compiled routing FIB vs per-packet oracle dispatch on a Quartz ring");

  topo::QuartzRingParams params;
  params.switches = 8;
  params.hosts_per_switch = 8;
  const topo::BuiltTopology topo = topo::quartz_ring(params);
  routing::EcmpRouting routing(topo.graph);
  const std::vector<Flow> flows = make_flows(topo, kFlowCount);
  std::vector<topo::LinkId> mesh;
  for (const auto& link : topo.graph.links()) {
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) mesh.push_back(link.id);
  }

  // The oracle slow path is the virtual next_link call with a
  // FailureView attached: what a Fib delegates to on a kSlow entry, and
  // what every decision costs without a Fib in front.
  routing::EcmpOracle oracle(routing);
  routing::FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  routing::Fib fib(routing, oracle);

  const auto oracle_decide = [&](topo::NodeId node, routing::FlowKey& key) {
    return oracle.next_link(node, key);
  };
  const auto fib_decide = [&](topo::NodeId node, routing::FlowKey& key) {
    return fib.next_link(node, key);
  };

  // -- healthy steady state --------------------------------------------------
  // One warm-up round each, then the measured runs must not allocate.
  const WalkTotals oracle_check = walk_rounds(topo.graph, flows, 1, oracle_decide);
  const RunStats slow =
      timed([&] { return walk_rounds(topo.graph, flows, kRounds, oracle_decide); });

  // Warming the FIB compiles every (node, group) this workload touches.
  const WalkTotals fib_check = walk_rounds(topo.graph, flows, 1, fib_decide);
  QUARTZ_CHECK(fib_check.checksum == oracle_check.checksum &&
                   fib_check.decisions == oracle_check.decisions,
               "compiled FIB must pick the same links as the oracle");
  const RunStats compiled =
      timed([&] { return walk_rounds(topo.graph, flows, kRounds, fib_decide); });

  // -- failure churn ---------------------------------------------------------
  // An unmeasured churn pass first: the FIB's arenas and compile
  // buffers reach their high-water mark, after which recompiles reuse
  // them.
  const RunStats slow_churn = timed([&] {
    return walk_with_churn(topo.graph, flows, kChurnRounds, view, mesh, kToggleEvery,
                           oracle_decide);
  });
  walk_with_churn(topo.graph, flows, kChurnRounds, view, mesh, kToggleEvery, fib_decide);
  fib.reset_stats();
  const RunStats fib_churn = timed([&] {
    return walk_with_churn(topo.graph, flows, kChurnRounds, view, mesh, kToggleEvery, fib_decide);
  });
  const routing::Fib::Stats churn_stats = fib.stats();

  const double speedup = compiled.decisions_per_sec() / slow.decisions_per_sec();
  const double churn_speedup = fib_churn.decisions_per_sec() / slow_churn.decisions_per_sec();

  Table table({"routing plane", "decisions", "decisions/sec (M)", "allocations",
               "allocs/decision"});
  for (const auto& [name, stats] :
       {std::pair<const char*, const RunStats&>{"oracle slow path, healthy", slow},
        {"compiled FIB, healthy", compiled},
        {"oracle slow path, churn", slow_churn},
        {"compiled FIB, churn", fib_churn}}) {
    char dps[16], apd[16];
    std::snprintf(dps, sizeof(dps), "%.2f", stats.decisions_per_sec() / 1e6);
    std::snprintf(apd, sizeof(apd), "%.3f", stats.allocs_per_decision());
    table.add_row(
        {name, std::to_string(stats.decisions), dps, std::to_string(stats.allocs), apd});
  }
  bench::Report::instance().add_table("routing_microbench", table);
  std::printf("healthy speedup: %.2fx; churn speedup: %.2fx; FIB steady-state allocations: %llu; "
              "churn invalidations: %llu (hits %llu / misses %llu)\n",
              speedup, churn_speedup, static_cast<unsigned long long>(compiled.allocs),
              static_cast<unsigned long long>(churn_stats.invalidations),
              static_cast<unsigned long long>(churn_stats.hits),
              static_cast<unsigned long long>(churn_stats.misses));
  bench::Report::instance().add_row(
      "routing_summary",
      {{"oracle_decisions_per_sec", slow.decisions_per_sec()},
       {"fib_decisions_per_sec", compiled.decisions_per_sec()},
       {"speedup", speedup},
       {"churn_speedup", churn_speedup},
       {"oracle_allocs_per_decision", slow.allocs_per_decision()},
       {"oracle_churn_allocs_per_decision", slow_churn.allocs_per_decision()},
       {"fib_steady_state_allocs", static_cast<std::int64_t>(compiled.allocs)},
       {"fib_allocs_per_decision", compiled.allocs_per_decision()},
       {"fib_churn_allocs_per_decision", fib_churn.allocs_per_decision()},
       {"churn_invalidations", static_cast<std::int64_t>(churn_stats.invalidations)},
       {"decisions_per_run", static_cast<std::int64_t>(compiled.decisions)}});

  QUARTZ_CHECK(compiled.allocs == 0,
               "the compiled FIB must route the warm workload with zero allocations");
  QUARTZ_CHECK(fib_churn.allocs == 0,
               "a warm FIB must recompile under churn with zero allocations");
  QUARTZ_CHECK(slow.allocs == 0 && slow_churn.allocs == 0,
               "the oracle slow path must decide with zero allocations");
  std::printf("check: allocations == 0 on the warm FIB (healthy and churn) and the oracle path\n");
  bench::print_note(
      "the oracle slow path virtual-dispatches into the oracle, which "
      "counts the alive members of the equal-cost span and walks to the "
      "hashed one; the compiled FIB answers from a dense per-(node, "
      "destination-group) entry — two array loads and a hash mix — and "
      "epoch invalidation keeps it exact under failure churn by lazily "
      "recompiling only the entries traffic actually touches.  Neither "
      "path allocates once warm; the speedups are reported, not gated");
}

void BM_CompiledFib(benchmark::State& state) {
  topo::QuartzRingParams params;
  params.switches = 8;
  params.hosts_per_switch = 8;
  const topo::BuiltTopology topo = topo::quartz_ring(params);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  routing::FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  routing::Fib fib(routing, oracle);
  const std::vector<Flow> flows = make_flows(topo, kFlowCount);
  const auto decide = [&](topo::NodeId node, routing::FlowKey& key) {
    return fib.next_link(node, key);
  };
  walk_rounds(topo.graph, flows, 1, decide);  // compile outside the timed loop
  for (auto _ : state) {
    WalkTotals totals = walk_rounds(topo.graph, flows, 1, decide);
    benchmark::DoNotOptimize(totals.checksum);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(totals.decisions));
  }
}
BENCHMARK(BM_CompiledFib)->Unit(benchmark::kMillisecond);

void BM_OracleSlowPath(benchmark::State& state) {
  topo::QuartzRingParams params;
  params.switches = 8;
  params.hosts_per_switch = 8;
  const topo::BuiltTopology topo = topo::quartz_ring(params);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  routing::FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const std::vector<Flow> flows = make_flows(topo, kFlowCount);
  const auto decide = [&](topo::NodeId node, routing::FlowKey& key) {
    return oracle.next_link(node, key);
  };
  for (auto _ : state) {
    WalkTotals totals = walk_rounds(topo.graph, flows, 1, decide);
    benchmark::DoNotOptimize(totals.checksum);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(totals.decisions));
  }
}
BENCHMARK(BM_OracleSlowPath)->Unit(benchmark::kMillisecond);

}  // namespace

QUARTZ_BENCH_MAIN(report)
