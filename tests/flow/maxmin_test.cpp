#include "flow/maxmin.hpp"

#include <gtest/gtest.h>

#include "flow/patterns.hpp"
#include "topo/builders.hpp"

namespace quartz::flow {
namespace {

using topo::NodeId;

topo::BuiltTopology dumbbell() {
  // Two hosts on each of two switches joined by one 10G link.
  topo::QuartzRingParams p;
  p.switches = 2;
  p.hosts_per_switch = 2;
  p.mesh_rate = gigabits_per_second(10);
  p.links.host_rate = gigabits_per_second(10);
  return topo::quartz_ring(p);
}

TEST(MaxMin, SingleFlowGetsLineRate) {
  const auto t = dumbbell();
  Flow flow;
  flow.src = t.host_groups[0][0];
  flow.dst = t.host_groups[1][0];
  flow.routes = {shortest_route(t.graph, flow.src, flow.dst)};
  const auto result = max_min_fair(t.graph, {flow});
  EXPECT_NEAR(result.flow_rate[0], 1e10, 1);
  EXPECT_NEAR(result.aggregate, 1e10, 1);
}

TEST(MaxMin, TwoFlowsShareBottleneckEqually) {
  const auto t = dumbbell();
  std::vector<Flow> flows(2);
  flows[0].src = t.host_groups[0][0];
  flows[0].dst = t.host_groups[1][0];
  flows[1].src = t.host_groups[0][1];
  flows[1].dst = t.host_groups[1][1];
  for (auto& f : flows) f.routes = {shortest_route(t.graph, f.src, f.dst)};
  const auto result = max_min_fair(t.graph, flows);
  // Shared 10G mesh link: 5G each.
  EXPECT_NEAR(result.flow_rate[0], 5e9, 1e3);
  EXPECT_NEAR(result.flow_rate[1], 5e9, 1e3);
}

TEST(MaxMin, UnequalPathsGetMaxMinNotEqual) {
  // Classic 3-flow example: flows A (long) and B, C (short) where A
  // shares both links. With unit capacities: A = C1 shared with B,
  // C2 shared with C -> A gets 0.5, B gets 0.5, C gets 0.5.
  const auto t = dumbbell();
  // Build on the quartz mesh of 3 switches instead for two segments.
  topo::QuartzRingParams p;
  p.switches = 3;
  p.hosts_per_switch = 2;
  p.mesh_rate = gigabits_per_second(10);
  const auto tri = topo::quartz_ring(p);

  // Long flow 0->2 via detour through 1 (forced two-segment route),
  // competing with direct flows 0->1 and 1->2.
  Flow long_flow;
  long_flow.src = tri.host_groups[0][0];
  long_flow.dst = tri.host_groups[2][0];
  long_flow.routes = quartz_routes(tri.graph, tri.quartz_rings[0], long_flow.src, long_flow.dst,
                                   /*two_hop=*/true);
  // Keep only the detour route (drop the direct lightpath).
  long_flow.routes.erase(long_flow.routes.begin());
  ASSERT_EQ(long_flow.routes.size(), 1u);

  Flow f01, f12;
  f01.src = tri.host_groups[0][1];
  f01.dst = tri.host_groups[1][0];
  f01.routes = {shortest_route(tri.graph, f01.src, f01.dst)};
  f12.src = tri.host_groups[1][1];
  f12.dst = tri.host_groups[2][1];
  f12.routes = {shortest_route(tri.graph, f12.src, f12.dst)};

  const auto result = max_min_fair(tri.graph, {long_flow, f01, f12});
  EXPECT_NEAR(result.flow_rate[0], 5e9, 1e3);
  EXPECT_NEAR(result.flow_rate[1], 5e9, 1e3);
  EXPECT_NEAR(result.flow_rate[2], 5e9, 1e3);
}

TEST(MaxMin, MultipathSumsSubflows) {
  topo::QuartzRingParams p;
  p.switches = 4;
  p.hosts_per_switch = 1;
  p.mesh_rate = gigabits_per_second(10);
  p.links.host_rate = gigabits_per_second(40);  // NIC is not the bottleneck
  const auto t = topo::quartz_ring(p);
  Flow flow;
  flow.src = t.hosts[0];
  flow.dst = t.hosts[1];
  flow.routes = quartz_routes(t.graph, t.quartz_rings[0], flow.src, flow.dst, true);
  ASSERT_EQ(flow.routes.size(), 3u);  // direct + 2 detours
  const auto result = max_min_fair(t.graph, {flow});
  // 10G direct + 2 x 10G detours = 30G.
  EXPECT_NEAR(result.flow_rate[0], 3e10, 1e4);
}

TEST(MaxMin, LineUsedAccountsAllocations) {
  const auto t = dumbbell();
  Flow flow;
  flow.src = t.host_groups[0][0];
  flow.dst = t.host_groups[1][0];
  flow.routes = {shortest_route(t.graph, flow.src, flow.dst)};
  const auto result = max_min_fair(t.graph, {flow});
  double used = 0;
  for (double u : result.line_used) used += u;
  // 3 directed lines each carry the full 10G.
  EXPECT_NEAR(used, 3e10, 10);
}

TEST(MaxMin, ResidualStageSeesLeftoverOnly) {
  const auto t = dumbbell();
  Flow first;
  first.src = t.host_groups[0][0];
  first.dst = t.host_groups[1][0];
  first.routes = {shortest_route(t.graph, first.src, first.dst)};
  const auto stage1 = max_min_fair(t.graph, {first});

  Flow second;
  second.src = t.host_groups[0][1];
  second.dst = t.host_groups[1][1];
  second.routes = {shortest_route(t.graph, second.src, second.dst)};
  const auto stage2 = max_min_fair(t.graph, {second}, stage1.line_used);
  // The mesh link is fully consumed by stage 1.
  EXPECT_NEAR(stage2.flow_rate[0], 0.0, 1.0);
}

TEST(MaxMin, AdaptiveNeverBelowDirectOnly) {
  topo::QuartzRingParams p;
  p.switches = 6;
  p.hosts_per_switch = 3;
  const auto t = topo::quartz_ring(p);
  std::vector<Flow> flows;
  // Hot pair: all hosts of rack 0 send to rack 1.
  for (int i = 0; i < 3; ++i) {
    Flow f;
    f.src = t.host_groups[0][static_cast<std::size_t>(i)];
    f.dst = t.host_groups[1][static_cast<std::size_t>(i)];
    f.routes = quartz_routes(t.graph, t.quartz_rings[0], f.src, f.dst, true);
    flows.push_back(std::move(f));
  }
  const auto adaptive = quartz_adaptive_allocate(t.graph, flows);

  std::vector<Flow> direct_only = flows;
  for (auto& f : direct_only) f.routes.resize(1);
  const auto direct = max_min_fair(t.graph, direct_only);

  EXPECT_GE(adaptive.aggregate, direct.aggregate * 0.999);
  // The hot rack pair overflows its single 10G lightpath; VLB spillover
  // must add real throughput.
  EXPECT_GT(adaptive.aggregate, direct.aggregate * 1.5);
}

TEST(MaxMin, RejectsMalformedInput) {
  const auto t = dumbbell();
  Flow empty;
  empty.src = t.hosts[0];
  empty.dst = t.hosts[1];
  EXPECT_THROW(max_min_fair(t.graph, {empty}), std::invalid_argument);

  Flow bad_initial;
  bad_initial.src = t.hosts[0];
  bad_initial.dst = t.hosts[1];
  bad_initial.routes = {shortest_route(t.graph, bad_initial.src, bad_initial.dst)};
  EXPECT_THROW(max_min_fair(t.graph, {bad_initial}, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Routes, ShortestRouteEndsAtHosts) {
  const auto t = dumbbell();
  const Route r = shortest_route(t.graph, t.host_groups[0][0], t.host_groups[1][1]);
  EXPECT_EQ(r.hops(), 3u);  // host link, mesh link, host link
  EXPECT_THROW(shortest_route(t.graph, t.hosts[0], t.hosts[0]), std::invalid_argument);
}

TEST(Routes, QuartzRoutesSameSwitchPair) {
  topo::QuartzRingParams p;
  p.switches = 3;
  p.hosts_per_switch = 2;
  const auto t = topo::quartz_ring(p);
  const auto routes = quartz_routes(t.graph, t.quartz_rings[0], t.host_groups[0][0],
                                    t.host_groups[0][1], true);
  ASSERT_EQ(routes.size(), 1u);  // same ToR: no mesh traversal
  EXPECT_EQ(routes[0].hops(), 2u);
}

TEST(Routes, DetourCountIsRingMinusTwo) {
  topo::QuartzRingParams p;
  p.switches = 8;
  p.hosts_per_switch = 1;
  const auto t = topo::quartz_ring(p);
  const auto routes =
      quartz_routes(t.graph, t.quartz_rings[0], t.hosts[0], t.hosts[5], true);
  EXPECT_EQ(routes.size(), 1u + 6u);
  EXPECT_EQ(routes[0].hops(), 3u);
  for (std::size_t i = 1; i < routes.size(); ++i) EXPECT_EQ(routes[i].hops(), 4u);
}

TEST(MaxMinSolver, MatchesFreeFunctionAndReuses) {
  const auto t = dumbbell();
  std::vector<Flow> flows(2);
  flows[0].src = t.host_groups[0][0];
  flows[0].dst = t.host_groups[1][0];
  flows[1].src = t.host_groups[0][1];
  flows[1].dst = t.host_groups[1][1];
  for (auto& f : flows) f.routes = {shortest_route(t.graph, f.src, f.dst)};

  const auto reference = max_min_fair(t.graph, flows);
  MaxMinSolver solver(t.graph);
  // Repeated solves on one instance reuse the flat workspaces; every
  // solve must still match the one-shot free function exactly.
  for (int round = 0; round < 3; ++round) {
    const auto& result = solver.solve(flows);
    ASSERT_EQ(result.flow_rate.size(), reference.flow_rate.size());
    for (std::size_t i = 0; i < result.flow_rate.size(); ++i) {
      EXPECT_EQ(result.flow_rate[i], reference.flow_rate[i]);
    }
    EXPECT_EQ(result.aggregate, reference.aggregate);
  }
}

TEST(MaxMinSolver, PermutationStableThroughBottleneckTies) {
  // Four flows pinned to the same 10G mesh lightpath freeze in an exact
  // four-way bottleneck tie (2.5G each).  The solver promises rates are
  // a function of the flow *set*, not the input order — bit for bit,
  // even through the tie.
  topo::QuartzRingParams p;
  p.switches = 2;
  p.hosts_per_switch = 4;
  p.mesh_rate = gigabits_per_second(10);
  p.links.host_rate = gigabits_per_second(10);
  const auto t = topo::quartz_ring(p);

  std::vector<Flow> flows(4);
  for (std::size_t i = 0; i < 4; ++i) {
    flows[i].src = t.host_groups[0][i];
    flows[i].dst = t.host_groups[1][i];
    flows[i].routes = {shortest_route(t.graph, flows[i].src, flows[i].dst)};
  }

  MaxMinSolver solver(t.graph);
  const auto base = solver.solve(flows);  // copy: next solve invalidates
  const std::vector<double> base_rates = base.flow_rate;

  const std::vector<std::vector<std::size_t>> orders = {
      {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  for (const auto& order : orders) {
    std::vector<Flow> permuted;
    for (const std::size_t i : order) permuted.push_back(flows[i]);
    const auto& result = solver.solve(permuted);
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
      EXPECT_EQ(result.flow_rate[slot], base_rates[order[slot]])
          << "flow " << order[slot] << " changed rate when solved at slot " << slot;
    }
  }
}

TEST(MaxMinSolver, DemandCapFreezesFlowEarly) {
  // A capped flow stops rising at its offered load; the freed capacity
  // goes to the greedy flow sharing its bottleneck.
  const auto t = dumbbell();
  std::vector<Flow> flows(2);
  flows[0].src = t.host_groups[0][0];
  flows[0].dst = t.host_groups[1][0];
  flows[0].demand = 2e9;
  flows[1].src = t.host_groups[0][1];
  flows[1].dst = t.host_groups[1][1];
  for (auto& f : flows) f.routes = {shortest_route(t.graph, f.src, f.dst)};

  MaxMinSolver solver(t.graph);
  const auto& result = solver.solve(flows);
  EXPECT_NEAR(result.flow_rate[0], 2e9, 1e3);
  EXPECT_NEAR(result.flow_rate[1], 8e9, 1e3);
  EXPECT_NEAR(result.aggregate, 1e10, 1e3);
}

TEST(MaxMinSolver, UsedLinesCoverOnlyTheRouteFootprint) {
  // One flow crosses host link, mesh link, host link — exactly three
  // directed lines; the compact used-line set must not touch the rest.
  const auto t = dumbbell();
  Flow flow;
  flow.src = t.host_groups[0][0];
  flow.dst = t.host_groups[1][0];
  flow.routes = {shortest_route(t.graph, flow.src, flow.dst)};

  MaxMinSolver solver(t.graph);
  const auto& result = solver.solve({flow});
  EXPECT_EQ(solver.used_lines().size(), 3u);
  for (const std::size_t line : solver.used_lines()) {
    EXPECT_NEAR(result.line_used[line], 1e10, 1);
  }
}

TEST(MaxMinSolver, NextSolveForgetsPreConsumedCapacity) {
  // A solve seeded with pre-consumed capacity on lines its own routes do
  // not cross must leave none of it behind for the next, unseeded solve.
  const auto t = dumbbell();
  Flow first;
  first.src = t.host_groups[0][0];
  first.dst = t.host_groups[1][0];
  first.routes = {shortest_route(t.graph, first.src, first.dst)};
  Flow second;
  second.src = t.host_groups[0][1];
  second.dst = t.host_groups[1][1];
  second.routes = {shortest_route(t.graph, second.src, second.dst)};
  const auto stage1 = max_min_fair(t.graph, {first});

  MaxMinSolver solver(t.graph);
  const auto& seeded = solver.solve({second}, stage1.line_used);
  EXPECT_NEAR(seeded.flow_rate[0], 0.0, 1.0);  // the shared mesh link is full
  const auto& fresh = solver.solve({second});
  EXPECT_NEAR(fresh.flow_rate[0], 1e10, 1e3);
  double used = 0;
  for (const double u : fresh.line_used) used += u;
  EXPECT_NEAR(used, 3e10, 10);  // the second flow's three lines only
}

class MaxMinInvariantSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MaxMinInvariantSweep, NoLineExceedsCapacityAndAllocationIsMaximal) {
  // Solver invariants across fabric sizes and pattern seeds:
  //  (1) no directed line carries more than its capacity;
  //  (2) every flow has at least one saturated line on every route
  //      (max-min maximality: nothing can be raised unilaterally).
  const auto [racks, seed] = GetParam();
  topo::QuartzRingParams p;
  p.switches = racks;
  p.hosts_per_switch = 4;
  const auto t = topo::quartz_ring(p);
  Rng rng(seed);
  const auto pairs = random_permutation(t.hosts, rng);

  std::vector<Flow> flows;
  for (const auto& pair : pairs) {
    Flow f;
    f.src = pair.src;
    f.dst = pair.dst;
    f.routes = quartz_routes(t.graph, t.quartz_rings[0], pair.src, pair.dst, true);
    flows.push_back(std::move(f));
  }
  const auto result = max_min_fair(t.graph, flows);

  // (1) capacity respected.
  for (const topo::LinkId id : t.graph.link_ids()) {
    EXPECT_LE(result.line_used[static_cast<std::size_t>(id) * 2], t.graph.rate(id) * 1.0001);
    EXPECT_LE(result.line_used[static_cast<std::size_t>(id) * 2 + 1],
              t.graph.rate(id) * 1.0001);
  }

  // (2) maximality: every subflow crosses a saturated line.
  std::size_t sub = 0;
  for (const auto& flow : flows) {
    for (const auto& route : flow.routes) {
      bool saturated = false;
      for (std::size_t i = 0; i < route.links.size(); ++i) {
        const std::size_t line = static_cast<std::size_t>(route.links[i]) * 2 +
                                 static_cast<std::size_t>(route.directions[i]);
        const double cap = t.graph.rate(route.links[i]);
        if (result.line_used[line] >= cap * 0.999) saturated = true;
      }
      EXPECT_TRUE(saturated) << "subflow " << sub << " could be raised";
      ++sub;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, MaxMinInvariantSweep,
                         ::testing::Combine(::testing::Values(4, 8, 12),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace quartz::flow
