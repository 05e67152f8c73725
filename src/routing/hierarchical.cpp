#include "routing/hierarchical.hpp"

#include <algorithm>
#include <ranges>
#include <span>

#include "common/check.hpp"

namespace quartz::routing {

namespace {
/// Dense-FIB arena sentinel: entry not yet computed (-1 is reserved
/// for kInvalidLink, a legitimately computed "no link" answer).
constexpr topo::LinkId kUncomputed = -2;
}  // namespace

HierOracle::HierOracle(const topo::BuiltTopology& topo) : graph_(&topo.graph) {
  QUARTZ_REQUIRE(topo.composite != nullptr, "HierOracle needs composite metadata");
  meta_ = topo.composite.get();
  QUARTZ_REQUIRE(meta_->uniform, "HierOracle needs uniform (rings-of-rings) metadata");
  levels_ = meta_->levels();
  leaf_size_ = meta_->arity.back();
  QUARTZ_REQUIRE(levels_ >= 2, "composite metadata must carry at least two levels");
  fib_base_ = ZeroArray<std::int64_t>(graph_->node_count());
  fib_epoch_ = state_epoch();
}

void HierOracle::ensure_epoch() const {
  const std::uint64_t epoch = state_epoch();
  if (epoch != fib_epoch_) {
    fib_epoch_ = epoch;
    fib_base_ = ZeroArray<std::int64_t>(fib_base_.size());
    arena_.clear();
    stats_.arenas = 0;
  }
}

topo::LinkId HierOracle::compute(topo::NodeId node, std::int32_t group) const {
  // Decode (level, coordinate) from the group id.
  int level = levels_ - 1;
  for (int l = 0; l < levels_; ++l) {
    if (group < meta_->level_offset[static_cast<std::size_t>(l) + 1]) {
      level = l;
      break;
    }
  }
  const std::int32_t coord = group - meta_->level_offset[static_cast<std::size_t>(level)];

  if (level == levels_ - 1) return meta_->leaf_mesh_link(node, coord);  // same leaf ring
  // Cross-element: take the recorded trunk if this switch is its
  // gateway, otherwise chain toward the gateway (strictly deeper
  // divergence level, so the recursion terminates at the leaf mesh).
  const std::int64_t parent = meta_->parent_index(node, level);
  const topo::TrunkEntry& trunk =
      meta_->trunk(level, parent, meta_->path_at(node, level), coord);
  if (trunk.gateway == node) return trunk.link;
  return lookup(node, meta_->group_of(node, trunk.gateway));
}

topo::LinkId HierOracle::lookup(topo::NodeId node, std::int32_t group) const {
  QUARTZ_CHECK(group >= 0, "lookup target co-located with node");
  std::int64_t& stored = fib_base_[static_cast<std::size_t>(node)];
  if (stored == 0) {
    stored = static_cast<std::int64_t>(arena_.size()) + 1;
    arena_.resize(arena_.size() + static_cast<std::size_t>(meta_->group_universe()), kUncomputed);
    ++stats_.arenas;
  }
  const std::size_t at =
      static_cast<std::size_t>(stored - 1) + static_cast<std::size_t>(group);
  if (arena_[at] == kUncomputed) {
    ++stats_.misses;
    // compute() may recurse into lookup() and grow the arena, moving
    // entries; index again through the (stable) base afterwards.
    const topo::LinkId value = compute(node, group);
    arena_[static_cast<std::size_t>(fib_base_[static_cast<std::size_t>(node)] - 1) +
           static_cast<std::size_t>(group)] = value;
    return value;
  }
  ++stats_.hits;
  return arena_[at];
}

topo::LinkId HierOracle::next_link(topo::NodeId node, FlowKey& key) const {
  const topo::Graph& g = *graph_;
  if (g.is_host(node)) return meta_->uplink(node);
  ensure_epoch();

  topo::LinkId primary = topo::kInvalidLink;
  for (int guard = 0; guard < 2 * levels_ + 2; ++guard) {
    if (key.via == node) {
      key.via = topo::kInvalidNode;
      continue;
    }
    // A host carries its attachment switch's path, so it routes as that
    // switch would.
    const topo::NodeId target = key.via != topo::kInvalidNode ? key.via : key.dst;
    const std::int32_t group = meta_->group_of(node, target);
    if (group < 0) {
      // At the destination's switch: deliver on the host port (or stop,
      // for switch destinations used by route extraction).
      return g.is_host(key.dst) ? meta_->uplink(key.dst) : topo::kInvalidLink;
    }

    primary = lookup(node, group);
    if (primary == topo::kInvalidLink || !link_soft_failed(primary)) return primary;
    if (key.vlb_done) return primary;  // healing budget spent

    const int level = meta_->divergence_level(node, target);
    if (level == levels_ - 1) {
      // Leaf-level self-healing: two-hop detour through a third ring
      // switch with both legs alive (§3.5, per level).
      const std::int32_t me = meta_->path_at(node, level);
      const std::int32_t to = meta_->path_at(target, level);
      const auto members = std::span(meta_->leaf_members)
                               .subspan(static_cast<std::size_t>(meta_->leaf_index(node)) *
                                            static_cast<std::size_t>(leaf_size_),
                                        static_cast<std::size_t>(leaf_size_));
      const auto alive = [&](std::int32_t w) {
        return w != me && w != to && !link_soft_failed(meta_->leaf_mesh_link(node, w)) &&
               !link_soft_failed(meta_->leaf_mesh_link(members[static_cast<std::size_t>(w)], to));
      };
      const auto slots = std::views::iota(std::int32_t{0}, static_cast<std::int32_t>(leaf_size_));
      const auto count = static_cast<std::size_t>(std::ranges::count_if(slots, alive));
      if (count == 0) return primary;
      const std::int32_t w = nth_kept(
          slots, hash_select(key.flow_hash, static_cast<std::uint64_t>(node), count), alive);
      key.via = members[static_cast<std::size_t>(w)];
      key.vlb_done = true;
      return meta_->leaf_mesh_link(node, w);
    }

    // Trunk-level self-healing: detour through a third sibling element
    // whose two trunk legs are both alive; retarget at its ingress
    // gateway and keep routing.
    const std::int64_t parent = meta_->parent_index(node, level);
    const std::int32_t e_u = meta_->path_at(node, level);
    const std::int32_t e_d = meta_->path_at(target, level);
    const auto alive = [&](std::int32_t k) {
      return k != e_u && k != e_d && !link_soft_failed(meta_->trunk(level, parent, e_u, k).link) &&
             !link_soft_failed(meta_->trunk(level, parent, k, e_d).link);
    };
    const auto siblings =
        std::views::iota(std::int32_t{0}, meta_->arity[static_cast<std::size_t>(level)]);
    const auto count = static_cast<std::size_t>(std::ranges::count_if(siblings, alive));
    if (count == 0) return primary;
    const std::int32_t k = nth_kept(
        siblings,
        hash_select(key.flow_hash, static_cast<std::uint64_t>(node) ^ kSplitMixGamma, count),
        alive);
    key.via = meta_->trunk(level, parent, e_u, k).peer_gateway;
    key.vlb_done = true;
    // Loop: route toward the detour gateway with the refreshed target.
  }
  return primary;
}

HierOracle::Path HierOracle::route(topo::NodeId src, topo::NodeId dst) const {
  QUARTZ_REQUIRE(src != dst, "route endpoints must differ");
  Path path;
  FlowKey key;
  key.src = src;
  key.dst = dst;
  const topo::Graph& g = *graph_;
  topo::NodeId at = src;
  // Generous hop bound: one traversal per level each way plus slack.
  const int max_hops = 4 * levels_ + 8;
  for (int hop = 0; hop < max_hops; ++hop) {
    if (at == dst) return path;
    const topo::LinkId link = next_link(at, key);
    if (link == topo::kInvalidLink) return path;  // switch dst reached
    path.links.push_back(link);
    const auto& l = g.link(link);
    path.directions.push_back(l.a == at ? 0 : 1);
    at = l.other(at);
  }
  QUARTZ_CHECK(false, "hierarchical route did not converge");
}

HierOracle::Stats HierOracle::stats() const {
  Stats out = stats_;
  out.entry_bytes = arena_.size() * sizeof(topo::LinkId);
  return out;
}

}  // namespace quartz::routing
