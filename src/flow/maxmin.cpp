#include "flow/maxmin.hpp"

#include <algorithm>
#include <deque>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace quartz::flow {
namespace {

std::size_t directed_index(topo::LinkId link, int direction) {
  return static_cast<std::size_t>(link) * 2 + static_cast<std::size_t>(direction);
}

}  // namespace

MaxMinSolver::MaxMinSolver(const topo::Graph& graph)
    : graph_(&graph), line_slot_(graph.link_count() * 2) {
  result_.line_used = ZeroArray<double>(graph.link_count() * 2);
}

const MaxMinResult& MaxMinSolver::solve(const std::vector<Flow>& flows,
                                        std::span<const double> initial_line_used) {
  // Clear the previous solve's footprint (O(previous footprint), not
  // O(total lines) — the property that makes per-epoch re-solves on a
  // warehouse-scale graph affordable).
  for (const std::size_t line : used_lines_) {
    result_.line_used[line] = 0.0;
    line_slot_[line] = 0;
  }
  for (const std::size_t line : seeded_lines_) result_.line_used[line] = 0.0;
  used_lines_.clear();
  seeded_lines_.clear();
  if (!initial_line_used.empty()) {
    QUARTZ_REQUIRE(initial_line_used.size() == line_slot_.size(),
                   "initial_line_used size must match directed line count");
    for (std::size_t line = 0; line < initial_line_used.size(); ++line) {
      if (initial_line_used[line] == 0.0) continue;
      // Clamp tiny float overshoot so residual capacity is never negative.
      result_.line_used[line] =
          std::min(initial_line_used[line], graph_->rate(static_cast<topo::LinkId>(line / 2)));
      seeded_lines_.push_back(line);
    }
  }

  // --- flatten routes into the subflow->line CSR, assigning compact
  // slots to the directed lines actually crossed.
  sub_offset_.clear();
  sub_lines_.clear();
  sub_flow_.clear();
  sub_offset_.push_back(0);
  flow_sub_begin_.assign(flows.size() + 1, 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    flow_sub_begin_[f] = sub_flow_.size();
    QUARTZ_REQUIRE(!flows[f].routes.empty(), "flow without routes");
    for (const Route& route : flows[f].routes) {
      QUARTZ_REQUIRE(!route.links.empty(), "empty route");
      QUARTZ_REQUIRE(route.links.size() == route.directions.size(),
                     "route links/directions mismatch");
      for (std::size_t i = 0; i < route.links.size(); ++i) {
        const std::size_t line = directed_index(route.links[i], route.directions[i]);
        if (line_slot_[line] == 0) {
          used_lines_.push_back(line);
          line_slot_[line] = static_cast<std::uint32_t>(used_lines_.size());
        }
        sub_lines_.push_back(static_cast<std::int32_t>(line_slot_[line] - 1));
      }
      sub_flow_.push_back(f);
      sub_offset_.push_back(sub_lines_.size());
    }
  }
  const std::size_t subflows = sub_flow_.size();
  flow_sub_begin_[flows.size()] = subflows;
  const std::size_t slots = used_lines_.size();

  // --- invert into the line->subflow CSR (counting sort, no per-line
  // vectors).
  line_offset_.assign(slots + 1, 0);
  for (const std::int32_t slot : sub_lines_) {
    ++line_offset_[static_cast<std::size_t>(slot) + 1];
  }
  for (std::size_t s = 0; s < slots; ++s) line_offset_[s + 1] += line_offset_[s];
  line_subs_.resize(sub_lines_.size());
  {
    std::vector<std::size_t> cursor(line_offset_.begin(), line_offset_.end() - 1);
    for (std::size_t sub = 0; sub < subflows; ++sub) {
      for (std::size_t i = sub_offset_[sub]; i < sub_offset_[sub + 1]; ++i) {
        line_subs_[cursor[static_cast<std::size_t>(sub_lines_[i])]++] =
            static_cast<std::int32_t>(sub);
      }
    }
  }

  // --- per-line and per-flow waterfilling state.
  frozen_.assign(slots, 0.0);
  active_count_.assign(slots, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    frozen_[s] = result_.line_used[used_lines_[s]];
    active_count_[s] =
        static_cast<std::int32_t>(line_offset_[s + 1] - line_offset_[s]);
  }
  sub_active_.assign(subflows, 1);
  sub_rate_.assign(subflows, 0.0);
  flow_frozen_.assign(flows.size(), 0.0);
  flow_active_subs_.assign(flows.size(), 0);
  for (const std::size_t f : sub_flow_) ++flow_active_subs_[f];

  // The water level at which compact line `s` saturates.
  const std::span<const topo::Link> links = graph_->links();
  const std::span<const topo::LinkClass> classes = graph_->link_classes();
  const auto line_saturates_at = [&](std::size_t s) {
    const double capacity = classes[links[used_lines_[s] / 2].link_class].rate;
    return (capacity - frozen_[s]) / static_cast<double>(active_count_[s]);
  };
  const auto freeze_subflow = [&](std::size_t sub, double level) {
    sub_active_[sub] = 0;
    sub_rate_[sub] = level;
    const std::size_t f = sub_flow_[sub];
    flow_frozen_[f] += level;
    --flow_active_subs_[f];
    for (std::size_t i = sub_offset_[sub]; i < sub_offset_[sub + 1]; ++i) {
      const auto slot = static_cast<std::size_t>(sub_lines_[i]);
      --active_count_[slot];
      frozen_[slot] += level;
    }
  };

  // Progressive filling: all active subflows share one rising water
  // level; the next saturation — a line filling up, or a flow reaching
  // its demand — determines each round's stop point.
  std::size_t remaining = subflows;
  double level = 0.0;
  while (remaining > 0) {
    double next_level = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < slots; ++s) {
      if (active_count_[s] == 0) continue;
      next_level = std::min(next_level, line_saturates_at(s));
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flow_active_subs_[f] == 0 || !std::isfinite(flows[f].demand)) continue;
      const double saturate_at = (flows[f].demand - flow_frozen_[f]) /
                                 static_cast<double>(flow_active_subs_[f]);
      next_level = std::min(next_level, saturate_at);
    }
    QUARTZ_CHECK(std::isfinite(next_level), "active subflow crosses no capacitated line");
    level = std::max(level, next_level);
    const double tolerance = level * (1.0 + 1e-12) + 1e-9;

    // Freeze every active subflow crossing a line that saturates at
    // this level, and every flow whose demand is met (within floating
    // tolerance).  Tied bottlenecks all freeze in this same round at
    // the same level, which is what makes the outcome independent of
    // input permutation.
    bool froze_any = false;
    for (std::size_t s = 0; s < slots; ++s) {
      if (active_count_[s] == 0 || line_saturates_at(s) > tolerance) continue;
      for (std::size_t i = line_offset_[s]; i < line_offset_[s + 1]; ++i) {
        const auto sub = static_cast<std::size_t>(line_subs_[i]);
        if (!sub_active_[sub]) continue;
        freeze_subflow(sub, level);
        froze_any = true;
        --remaining;
      }
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flow_active_subs_[f] == 0 || !std::isfinite(flows[f].demand)) continue;
      const double saturate_at = (flows[f].demand - flow_frozen_[f]) /
                                 static_cast<double>(flow_active_subs_[f]);
      if (saturate_at > tolerance) continue;
      // Freeze the flow's remaining subflows (contiguous, flow-major).
      for (std::size_t sub = flow_sub_begin_[f]; sub < flow_sub_begin_[f + 1]; ++sub) {
        if (!sub_active_[sub]) continue;
        freeze_subflow(sub, level);
        froze_any = true;
        --remaining;
      }
    }
    QUARTZ_CHECK(froze_any, "waterfilling made no progress");
  }

  // --- collect.
  result_.flow_rate.assign(flows.size(), 0.0);
  result_.subflow_rate.assign(subflows, 0.0);
  result_.aggregate = 0.0;
  for (std::size_t sub = 0; sub < subflows; ++sub) {
    result_.subflow_rate[sub] = sub_rate_[sub];
    result_.flow_rate[sub_flow_[sub]] += sub_rate_[sub];
    result_.aggregate += sub_rate_[sub];
  }
  for (std::size_t s = 0; s < slots; ++s) {
    result_.line_used[used_lines_[s]] = frozen_[s];
  }
  return result_;
}

MaxMinResult max_min_fair(const topo::Graph& graph, const std::vector<Flow>& flows,
                          std::span<const double> initial_line_used) {
  MaxMinSolver solver(graph);
  return solver.solve(flows, initial_line_used);
}

MaxMinResult quartz_adaptive_allocate(const topo::Graph& graph, const std::vector<Flow>& flows) {
  // Stage 1: ECMP — the direct lightpath only.
  std::vector<Flow> direct_stage;
  direct_stage.reserve(flows.size());
  for (const Flow& flow : flows) {
    QUARTZ_REQUIRE(!flow.routes.empty(), "flow without routes");
    Flow d;
    d.src = flow.src;
    d.dst = flow.dst;
    d.routes = {flow.routes.front()};
    direct_stage.push_back(std::move(d));
  }
  MaxMinResult stage1 = max_min_fair(graph, direct_stage);

  // Stage 2: VLB spillover — detour routes over the residual capacity.
  std::vector<Flow> detour_stage;
  std::vector<std::size_t> detour_owner;  // detour-stage flow -> original flow
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].routes.size() <= 1) continue;
    Flow d;
    d.src = flows[f].src;
    d.dst = flows[f].dst;
    d.routes.assign(flows[f].routes.begin() + 1, flows[f].routes.end());
    detour_stage.push_back(std::move(d));
    detour_owner.push_back(f);
  }

  MaxMinResult combined = stage1;
  if (!detour_stage.empty()) {
    const MaxMinResult stage2 = max_min_fair(graph, detour_stage, stage1.line_used);
    for (std::size_t i = 0; i < detour_stage.size(); ++i) {
      combined.flow_rate[detour_owner[i]] += stage2.flow_rate[i];
      combined.aggregate += stage2.flow_rate[i];
    }
    combined.line_used = stage2.line_used;
    // subflow_rate keeps only stage-1 (direct) rates; detour shares are
    // folded into flow_rate.
  }
  return combined;
}

Route shortest_route(const topo::Graph& graph, topo::NodeId src, topo::NodeId dst) {
  QUARTZ_REQUIRE(src != dst, "route endpoints must differ");
  std::vector<topo::LinkId> via_link(graph.node_count(), topo::kInvalidLink);
  std::vector<topo::NodeId> via_node(graph.node_count(), topo::kInvalidNode);
  std::vector<bool> seen(graph.node_count(), false);
  std::deque<topo::NodeId> queue{src};
  seen[static_cast<std::size_t>(src)] = true;
  while (!queue.empty()) {
    const topo::NodeId u = queue.front();
    queue.pop_front();
    if (u == dst) break;
    if (u != src && !graph.is_switch(u)) continue;  // hosts do not relay
    for (const auto& adj : graph.neighbors(u)) {
      if (seen[static_cast<std::size_t>(adj.peer)]) continue;
      seen[static_cast<std::size_t>(adj.peer)] = true;
      via_link[static_cast<std::size_t>(adj.peer)] = adj.link;
      via_node[static_cast<std::size_t>(adj.peer)] = u;
      queue.push_back(adj.peer);
    }
  }
  QUARTZ_REQUIRE(seen[static_cast<std::size_t>(dst)], "destination unreachable");

  Route route;
  for (topo::NodeId n = dst; n != src; n = via_node[static_cast<std::size_t>(n)]) {
    const topo::LinkId l = via_link[static_cast<std::size_t>(n)];
    route.links.push_back(l);
    route.directions.push_back(graph.link(l).a == via_node[static_cast<std::size_t>(n)] ? 0 : 1);
  }
  std::reverse(route.links.begin(), route.links.end());
  std::reverse(route.directions.begin(), route.directions.end());
  return route;
}

std::vector<Route> quartz_routes(const topo::Graph& graph,
                                 const std::vector<topo::NodeId>& ring, topo::NodeId src,
                                 topo::NodeId dst, bool two_hop) {
  QUARTZ_REQUIRE(src != dst, "route endpoints must differ");
  auto attachment = [&](topo::NodeId host) {
    for (const auto& adj : graph.neighbors(host)) {
      if (graph.is_switch(adj.peer)) return std::pair{adj.peer, adj.link};
    }
    QUARTZ_CHECK(false, "host has no switch attachment");
  };
  auto mesh_link = [&](topo::NodeId a, topo::NodeId b) {
    for (const auto& adj : graph.neighbors(a)) {
      if (adj.peer == b) return adj.link;
    }
    return topo::kInvalidLink;
  };
  auto direction = [&](topo::LinkId l, topo::NodeId from) {
    return graph.link(l).a == from ? 0 : 1;
  };

  const auto [src_sw, src_link] = attachment(src);
  const auto [dst_sw, dst_link] = attachment(dst);

  std::vector<Route> routes;
  if (src_sw == dst_sw) {
    Route direct;
    direct.links = {src_link, dst_link};
    direct.directions = {direction(src_link, src), direction(dst_link, dst_sw)};
    routes.push_back(std::move(direct));
    return routes;
  }

  const topo::LinkId mesh = mesh_link(src_sw, dst_sw);
  QUARTZ_REQUIRE(mesh != topo::kInvalidLink, "ring is not fully meshed");
  Route direct;
  direct.links = {src_link, mesh, dst_link};
  direct.directions = {direction(src_link, src), direction(mesh, src_sw),
                       direction(dst_link, dst_sw)};
  routes.push_back(std::move(direct));

  if (two_hop) {
    for (topo::NodeId w : ring) {
      if (w == src_sw || w == dst_sw) continue;
      const topo::LinkId first = mesh_link(src_sw, w);
      const topo::LinkId second = mesh_link(w, dst_sw);
      if (first == topo::kInvalidLink || second == topo::kInvalidLink) continue;
      Route detour;
      detour.links = {src_link, first, second, dst_link};
      detour.directions = {direction(src_link, src), direction(first, src_sw),
                           direction(second, w), direction(dst_link, dst_sw)};
      routes.push_back(std::move(detour));
    }
  }
  return routes;
}

}  // namespace quartz::flow
