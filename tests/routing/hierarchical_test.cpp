// HierOracle (routing/hierarchical.hpp): level-group FIB layout, lazy
// arena accounting, epoch invalidation, O(hops) route extraction,
// packet delivery across hierarchy levels, and per-level two-hop
// healing under failures.
#include "routing/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "routing/failure_view.hpp"
#include "sim/network.hpp"
#include "topo/composite.hpp"

namespace quartz::routing {
namespace {

using topo::BuiltTopology;
using topo::LinkId;
using topo::NodeId;

BuiltTopology three_by_four() {
  const auto spec = topo::CompositeSpec::parse("ring-of-rings:3x4@1");
  return topo::build_composite(*spec);
}

/// Walk a path from `src` and return where it lands.
NodeId walk(const topo::Graph& graph, NodeId src, const HierOracle::Path& path) {
  NodeId at = src;
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const auto& link = graph.link(path.links[i]);
    EXPECT_EQ(path.directions[i] == 0 ? link.a : link.b, at);
    at = link.other(at);
  }
  return at;
}

/// Per-link loss estimates in a flat array.
class TableLossView final : public LossView {
 public:
  explicit TableLossView(std::size_t links) : loss_(links, 0.0) {}
  void set(LinkId link, double p) {
    loss_[static_cast<std::size_t>(link)] = p;
    bump_epoch();
  }
  double loss_rate(LinkId link) const override { return loss_[static_cast<std::size_t>(link)]; }

 private:
  std::vector<double> loss_;
};

/// FNV-1a over a stream of 64-bit values.
struct PickDigest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (v >> (8 * byte)) & 0xFF;
      value *= 0x100000001b3ull;
    }
  }
};

TEST(HierOracle, RequiresUniformMeta) {
  topo::QuartzRingParams p;
  p.switches = 4;
  p.hosts_per_switch = 1;
  const auto plain = topo::quartz_ring(p);
  EXPECT_THROW(HierOracle{plain}, std::invalid_argument);
}

TEST(HierOracle, GroupUniverseIsSumOfArity) {
  const auto t = three_by_four();
  ASSERT_NE(t.composite, nullptr);
  const topo::CompositeMeta& meta = *t.composite;
  EXPECT_EQ(meta.group_universe(), 3 + 4);
  // A host carries its attachment switch's path, so it keys that
  // switch's group: a leaf peer's host is its slot's group, a host in
  // element 1 that element's group, and a co-located host none (host
  // port only).
  const NodeId s00 = meta.leaf_members[0];
  EXPECT_EQ(meta.group_of(s00, t.hosts[1]), meta.group_of(s00, meta.leaf_members[1]));
  EXPECT_EQ(meta.group_of(s00, t.hosts[1]), meta.level_offset[1] + 1);
  EXPECT_EQ(meta.group_of(s00, t.hosts[4]), meta.level_offset[0] + 1);
  EXPECT_EQ(meta.group_of(s00, t.hosts[0]), -1);
}

TEST(HierOracle, RoutesAreLevelBounded) {
  const auto t = three_by_four();
  const HierOracle oracle(t);
  // Same switch: up + down.  Same element: one mesh hop.  Cross
  // element: at most gateway-chase + trunk + gateway-exit between the
  // access links.
  for (std::size_t i = 0; i < t.hosts.size(); ++i) {
    for (std::size_t j = 0; j < t.hosts.size(); ++j) {
      if (i == j) continue;
      const auto path = oracle.route(t.hosts[i], t.hosts[j]);
      EXPECT_EQ(walk(t.graph, t.hosts[i], path), t.hosts[j]);
      EXPECT_LE(path.links.size(), 5u);  // host + mesh + trunk + mesh + host
    }
  }
}

TEST(HierOracle, DenseFibIsSublinearAndCached) {
  const auto t = three_by_four();
  const HierOracle oracle(t);
  const auto cold = oracle.stats();
  EXPECT_EQ(cold.arenas, 0u);
  EXPECT_EQ(cold.entry_bytes, 0u);

  const auto first = oracle.route(t.hosts[0], t.hosts[11]);
  const auto warm = oracle.stats();
  EXPECT_GT(warm.misses, 0u);
  EXPECT_GT(warm.arenas, 0u);
  // Arena entries are per (touched switch, level-group): far below one
  // entry per destination host per switch.
  EXPECT_LE(warm.entry_bytes,
            warm.arenas * static_cast<std::uint64_t>(t.composite->group_universe()) *
                sizeof(LinkId));

  // The same route again is pure cache hits.
  const auto again = oracle.route(t.hosts[0], t.hosts[11]);
  const auto hot = oracle.stats();
  EXPECT_EQ(hot.misses, warm.misses);
  EXPECT_GT(hot.hits, warm.hits);
  EXPECT_EQ(again.links, first.links);
}

TEST(HierOracle, EpochChangeWipesTheFib) {
  const auto t = three_by_four();
  HierOracle oracle(t);
  FailureView view(t.graph.link_count());
  oracle.attach_failure_view(&view);

  (void)oracle.route(t.hosts[0], t.hosts[11]);
  const auto warm = oracle.stats();
  EXPECT_GT(warm.misses, 0u);

  // Any knowledge change moves state_epoch; the next lookup recomputes.
  const auto before = oracle.state_epoch();
  view.set_dead(0, true);
  view.set_dead(0, false);
  EXPECT_NE(oracle.state_epoch(), before);
  (void)oracle.route(t.hosts[0], t.hosts[11]);
  EXPECT_GT(oracle.stats().misses, warm.misses);
}

TEST(HierOracle, DeliversAcrossLevelsInTheSimulator) {
  const auto t = three_by_four();
  const HierOracle oracle(t);
  sim::Network net(t, oracle, {});
  std::uint64_t delivered = 0;
  const int task = net.new_task([&](const sim::Packet&, TimePs) { ++delivered; });

  // Every ordered host pair once.
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < t.hosts.size(); ++i) {
    for (std::size_t j = 0; j < t.hosts.size(); ++j) {
      if (i == j) continue;
      net.send(t.hosts[i], t.hosts[j], bytes(400), task, ++sent);
    }
  }
  net.run_until(milliseconds(10));
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(net.packets_dropped(), 0u);
}

TEST(HierOracle, LeafHealingDetoursThroughAThirdRingSwitch) {
  const auto t = three_by_four();
  HierOracle oracle(t);
  FailureView view(t.graph.link_count());
  oracle.attach_failure_view(&view);

  // Host 0 and host 2 sit on slots 0 and 2 of element 0; kill their
  // direct leaf lightpath.
  const auto direct = oracle.route(t.hosts[0], t.hosts[2]);
  ASSERT_EQ(direct.links.size(), 3u);
  view.set_dead(direct.links[1], true);

  const auto healed = oracle.route(t.hosts[0], t.hosts[2]);
  EXPECT_EQ(walk(t.graph, t.hosts[0], healed), t.hosts[2]);
  EXPECT_EQ(healed.links.size(), 4u);  // two mesh legs through a third switch
  EXPECT_TRUE(std::find(healed.links.begin(), healed.links.end(), direct.links[1]) ==
              healed.links.end());

  // Healing is deterministic in the flow hash: the same pair always
  // takes the same detour.
  const auto again = oracle.route(t.hosts[0], t.hosts[2]);
  EXPECT_EQ(again.links, healed.links);

  // Across flow hashes the detours spread over both live third
  // switches of the ring (slots 1 and 3), never leaving it.
  const topo::CompositeMeta& meta = *t.composite;
  std::set<NodeId> vias;
  for (std::uint64_t h = 1; h <= 64; ++h) {
    FlowKey key;
    key.src = t.hosts[0];
    key.dst = t.hosts[2];
    key.flow_hash = mix_hash(h);
    const LinkId first = oracle.next_link(meta.leaf_members[0], key);
    ASSERT_TRUE(key.vlb_done);
    EXPECT_EQ(first, meta.leaf_mesh_link(meta.leaf_members[0], meta.path_at(key.via, 1)));
    vias.insert(key.via);
  }
  EXPECT_EQ(vias, (std::set<NodeId>{meta.leaf_members[1], meta.leaf_members[3]}));
}

TEST(HierOracle, TrunkHealingDetoursThroughASiblingElement) {
  const auto t = three_by_four();
  HierOracle oracle(t);
  FailureView view(t.graph.link_count());
  oracle.attach_failure_view(&view);
  ASSERT_NE(t.composite, nullptr);

  // Kill the element-0 <-> element-1 trunk; flows must transit element 2.
  const auto& trunk = t.composite->trunk(0, 0, 0, 1);
  ASSERT_NE(trunk.link, topo::kInvalidLink);
  view.set_dead(trunk.link, true);

  const NodeId src = t.hosts[0];      // element 0
  const NodeId dst = t.hosts[4 + 1];  // element 1
  const auto healed = oracle.route(src, dst);
  EXPECT_EQ(walk(t.graph, src, healed), dst);
  EXPECT_TRUE(std::find(healed.links.begin(), healed.links.end(), trunk.link) ==
              healed.links.end());
  // The detour transits the third element: some switch on the path has
  // outer coordinate 2.
  bool via_third = false;
  for (const LinkId id : healed.links) {
    const auto& link = t.graph.link(id);
    for (const NodeId end : {link.a, link.b}) {
      if (!t.graph.is_host(end) && t.composite->path_at(end, 0) == 2) via_third = true;
    }
  }
  EXPECT_TRUE(via_third);

  // Still delivers in the packet simulator under the same failure.
  sim::Network net(t, oracle, {});
  net.fail_link(trunk.link);
  std::uint64_t delivered = 0;
  const int task = net.new_task([&](const sim::Packet&, TimePs) { ++delivered; });
  net.run_until(microseconds(600));  // let detection settle
  net.send(src, dst, bytes(400), task, 7);
  net.run_until(milliseconds(5));
  EXPECT_EQ(delivered, 1u);
}

/// Every healing pick the oracle makes, folded into one digest: for
/// three seeded sets of dead and lossy fabric links, route() over all
/// ordered host pairs plus next_link walks under four flow hashes per
/// pair.  A change to which detour a leaf or trunk failure takes, or to
/// the order detour candidates are counted in, moves the digest.
TEST(HierOracle, HealingPicksArePinned) {
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"ring-of-rings:3x4@1", 0x89b8c79dd17a1d20ull},
      {"ring-of-rings:2x3x4@1", 0x4a76c5fd1d884bbeull},
  };
  for (const auto& [text, pinned] : cases) {
    SCOPED_TRACE(text);
    const auto t = topo::build_composite(*topo::CompositeSpec::parse(text));
    HierOracle oracle(t);
    FailureView view(t.graph.link_count());
    TableLossView loss(t.graph.link_count());
    oracle.attach_failure_view(&view);
    oracle.attach_loss_view(&loss);
    std::vector<LinkId> fabric;
    for (const topo::LinkId id : t.graph.link_ids()) {
      const topo::Link& link = t.graph.link(id);
      if (t.graph.is_switch(link.a) && t.graph.is_switch(link.b)) fabric.push_back(id);
    }

    const topo::CompositeMeta& meta = *t.composite;
    PickDigest digest;
    std::uint64_t leaf_detours = 0;
    std::uint64_t trunk_detours = 0;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      Rng rng(seed);
      for (const LinkId link : fabric) {
        const std::uint64_t draw = rng.next_below(10);
        view.set_dead(link, draw == 0);
        loss.set(link, draw == 1 ? 0.3 : draw == 2 ? 0.01 : 0.0);
      }
      for (const NodeId src : t.hosts) {
        for (const NodeId dst : t.hosts) {
          if (src == dst) continue;
          const auto path = oracle.route(src, dst);
          for (const LinkId link : path.links) digest.add(static_cast<std::uint64_t>(link));
          digest.add(path.links.size());
          for (std::uint64_t h = 1; h <= 4; ++h) {
            FlowKey key;
            key.src = src;
            key.dst = dst;
            key.flow_hash = mix_hash(h * 0x9e37u + static_cast<std::uint64_t>(src) * 131u +
                                     static_cast<std::uint64_t>(dst));
            NodeId at = src;
            for (int hop = 0; hop < 32 && at != dst; ++hop) {
              const bool fresh = !key.vlb_done;
              const LinkId link = oracle.next_link(at, key);
              if (link == topo::kInvalidLink) break;
              if (fresh && key.vlb_done) {
                ++(meta.divergence_level(at, key.via) == meta.levels() - 1 ? leaf_detours
                                                                            : trunk_detours);
              }
              digest.add(static_cast<std::uint64_t>(link));
              at = t.graph.link(link).other(at);
            }
            digest.add(static_cast<std::uint64_t>(at));
          }
        }
      }
    }
    EXPECT_GT(leaf_detours, 0u) << "no dead or lossy lightpath reached the leaf picker";
    EXPECT_GT(trunk_detours, 0u) << "no dead or lossy trunk reached the trunk picker";
    EXPECT_EQ(digest.value, pinned) << std::hex << digest.value;
  }
}

}  // namespace
}  // namespace quartz::routing
