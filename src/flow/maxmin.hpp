// Flow-level max-min fair (progressive-filling) throughput solver.
//
// The paper evaluates Quartz's bisection bandwidth (Fig. 10) by
// comparing the aggregate throughput of traffic patterns on Quartz
// (one- and two-hop routing) against ideal and capacity-reduced
// fabrics.  This solver implements classic waterfilling: every subflow
// rises at the same rate; when a directed link saturates, the subflows
// crossing it freeze at the current water level.  A flow's throughput
// is the sum of its subflows (one per path), which models VLB's static
// traffic split; host NIC links appear in every route, so endpoint
// capacity caps emerge naturally instead of via explicit demands.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/zero_array.hpp"
#include "topo/graph.hpp"

namespace quartz::flow {

/// One directed path as a sequence of (link, direction) steps;
/// direction 0 traverses a->b.
struct Route {
  std::vector<topo::LinkId> links;
  std::vector<int> directions;

  std::size_t hops() const { return links.size(); }
};

/// One host-to-host flow with one or more parallel routes.
struct Flow {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  std::vector<Route> routes;
  /// Offered load cap (bits/s) across all routes; the flow stops
  /// rising once its subflow rates sum to this.  Infinity = greedy
  /// (the Fig. 10 bisection semantics).
  double demand = std::numeric_limits<double>::infinity();
};

struct MaxMinResult {
  /// Total rate per flow (bits/s), summed over its routes.
  std::vector<double> flow_rate;
  /// Rate per (flow, route) subflow, flattened in flow-major order.
  std::vector<double> subflow_rate;
  double aggregate = 0.0;  ///< sum of all flow rates
  /// Consumed capacity per directed line (link*2 + direction), bits/s;
  /// feed back into a second allocation stage as pre-consumed capacity.
  /// Pages of lines no route crosses are never committed.
  ZeroArray<double> line_used;
};

/// Waterfill `flows` over the capacity left after `initial_line_used`
/// (empty = pristine network).
MaxMinResult max_min_fair(const topo::Graph& graph, const std::vector<Flow>& flows,
                          std::span<const double> initial_line_used = {});

/// Reusable progressive-filling solver.  The working state lives in flat
/// arrays indexed by a *compact* used-line numbering (only the directed
/// lines the routes actually cross), so repeated solves on a
/// warehouse-scale graph cost O(route footprint) per epoch rather than
/// O(total lines) — the property sim::FluidBackground's epoch clock
/// depends on.  The two per-line arrays (the compact slot map and
/// MaxMinResult::line_used) commit memory only for the lines a solve
/// writes, and capacities are read from the graph, so constructing a
/// solver fills nothing.  Results are permutation-stable: flow rates
/// depend only on the set of (routes, demand), not input order, even
/// through exact bottleneck ties (every tied subflow freezes in the
/// same round at the same water level).
class MaxMinSolver {
 public:
  /// Keeps a reference to `graph`, which must outlive the solver.
  explicit MaxMinSolver(const topo::Graph& graph);

  /// Solve for `flows`; the returned reference stays valid until the
  /// next solve() on this instance.
  const MaxMinResult& solve(const std::vector<Flow>& flows,
                            std::span<const double> initial_line_used = {});

  /// Directed lines touched by the most recent solve (compact order).
  const std::vector<std::size_t>& used_lines() const { return used_lines_; }

 private:
  const topo::Graph* graph_;

  // Compact used-line index, rebuilt per solve without reallocating.
  ZeroArray<std::uint32_t> line_slot_;     ///< directed line -> compact slot + 1, 0 unused
  std::vector<std::size_t> used_lines_;    ///< compact slot -> directed line
  /// Lines the last solve seeded from a non-zero initial_line_used
  /// entry; the next solve clears them along with used_lines_.
  std::vector<std::size_t> seeded_lines_;

  // CSR: subflow -> compact lines, and compact line -> subflows.
  std::vector<std::int32_t> sub_lines_;
  std::vector<std::size_t> sub_offset_;
  std::vector<std::size_t> sub_flow_;
  std::vector<std::int32_t> line_subs_;
  std::vector<std::size_t> line_offset_;

  // Waterfilling state, per compact line / subflow / flow.
  std::vector<double> frozen_;
  std::vector<std::int32_t> active_count_;
  std::vector<char> sub_active_;
  std::vector<double> sub_rate_;
  std::vector<double> flow_frozen_;
  std::vector<std::int32_t> flow_active_subs_;
  std::vector<std::size_t> flow_sub_begin_;  ///< flow -> first subflow (flow-major)

  MaxMinResult result_;
};

/// §3.4's adaptive VLB at the flow level: allocate over the direct
/// lightpaths first (the ECMP stage), then spill each flow's residual
/// demand over its two-hop detours on the leftover capacity.  Flows
/// must carry the direct route first and detours after it (the layout
/// quartz_routes() produces).
MaxMinResult quartz_adaptive_allocate(const topo::Graph& graph, const std::vector<Flow>& flows);

/// Shortest host-to-host route (BFS through switches); the
/// deterministic single-path baseline.
Route shortest_route(const topo::Graph& graph, topo::NodeId src, topo::NodeId dst);

/// Routes through a Quartz mesh: the direct lightpath, plus (when
/// `two_hop` is set) one detour through every other ring switch —
/// §3.4's ECMP + VLB path set.
std::vector<Route> quartz_routes(const topo::Graph& graph,
                                 const std::vector<topo::NodeId>& ring, topo::NodeId src,
                                 topo::NodeId dst, bool two_hop);

}  // namespace quartz::flow
