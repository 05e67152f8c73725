#include "topo/failures.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/check.hpp"
#include "wavelength/assign.hpp"
#include "wavelength/multiring.hpp"

namespace quartz::topo {
namespace {

/// Map each (src_index, dst_index) ring pair to whether any cut severs
/// it, by re-deriving the deterministic channel plan the builder used.
/// `phys_base`/`phys_count` are the physical-ring range this logical
/// ring's channels were striped over (add_quartz_mesh numbering).
std::set<std::pair<int, int>> severed_pairs(int ring_size, int phys_base, int phys_count,
                                            const std::vector<FiberCut>& cuts,
                                            const wavelength::Assignment& plan) {
  wavelength::FiberCuts failed(ring_size, phys_count);
  for (const FiberCut& cut : cuts) {
    if (cut.ring < phys_base || cut.ring >= phys_base + phys_count) continue;
    failed.cut(cut.ring - phys_base, cut.segment);
  }
  std::set<std::pair<int, int>> severed;
  if (failed.empty()) return severed;
  for (const auto& path : plan.paths) {
    if (failed.severs(path)) severed.insert({path.src, path.dst});
  }
  return severed;
}

int physical_ring_count(const BuiltTopology& topo) {
  int rings = 0;
  for (const auto& link : topo.graph.links()) {
    rings = std::max(rings, link.wdm_ring + 1);
  }
  return std::max(rings, 1);
}

/// Per-node (ring ordinal, slot) membership plus, per logical ring,
/// the physical-ring range its mesh links occupy and its severed set.
struct RingSurgery {
  std::vector<int> ring_of;  ///< node -> logical ring ordinal, -1 outside
  std::vector<int> slot_of;  ///< node -> slot within its ring
  /// severed[r] holds (slot, slot) pairs with slot_a < slot_b.
  std::vector<std::set<std::pair<int, int>>> severed;
};

RingSurgery plan_surgery(const BuiltTopology& topo, const std::vector<FiberCut>& cuts) {
  QUARTZ_REQUIRE(!topo.quartz_rings.empty(), "fiber-cut surgery expects Quartz rings");
  const int total_phys = physical_ring_count(topo);
  for (const FiberCut& cut : cuts) {
    QUARTZ_REQUIRE(cut.ring >= 0 && cut.ring < total_phys, "cut ring out of range");
  }

  RingSurgery surgery;
  surgery.ring_of.assign(topo.graph.node_count(), -1);
  surgery.slot_of.assign(topo.graph.node_count(), -1);
  const int rings = static_cast<int>(topo.quartz_rings.size());
  for (int r = 0; r < rings; ++r) {
    const auto& members = topo.quartz_rings[static_cast<std::size_t>(r)];
    QUARTZ_REQUIRE(members.size() <= 64, "ring too large for the 64-segment cut mask");
    for (std::size_t s = 0; s < members.size(); ++s) {
      surgery.ring_of[static_cast<std::size_t>(members[s])] = r;
      surgery.slot_of[static_cast<std::size_t>(members[s])] = static_cast<int>(s);
    }
  }

  // The physical-ring range of each logical ring, from its mesh links.
  std::vector<int> base(static_cast<std::size_t>(rings), std::numeric_limits<int>::max());
  std::vector<int> top(static_cast<std::size_t>(rings), -1);
  for (const auto& link : topo.graph.links()) {
    if (link.wdm_ring < 0) continue;
    const int ra = surgery.ring_of[static_cast<std::size_t>(link.a)];
    if (ra < 0 || ra != surgery.ring_of[static_cast<std::size_t>(link.b)]) continue;
    base[static_cast<std::size_t>(ra)] = std::min(base[static_cast<std::size_t>(ra)], link.wdm_ring);
    top[static_cast<std::size_t>(ra)] = std::max(top[static_cast<std::size_t>(ra)], link.wdm_ring);
  }

  // Channel plans dedupe by ring size (composed fabrics hold thousands
  // of same-size leaf rings).
  std::map<int, wavelength::Assignment> plans;
  surgery.severed.resize(static_cast<std::size_t>(rings));
  for (int r = 0; r < rings; ++r) {
    if (top[static_cast<std::size_t>(r)] < 0) continue;  // no mesh links (ring of < 2)
    const int size = static_cast<int>(topo.quartz_rings[static_cast<std::size_t>(r)].size());
    auto [it, inserted] = plans.try_emplace(size);
    if (inserted) it->second = wavelength::greedy_assign(size);
    surgery.severed[static_cast<std::size_t>(r)] =
        severed_pairs(size, base[static_cast<std::size_t>(r)],
                      top[static_cast<std::size_t>(r)] - base[static_cast<std::size_t>(r)] + 1,
                      cuts, it->second);
  }
  return surgery;
}

/// Whether a link is a mesh link severed by the planned surgery.
bool link_severed(const RingSurgery& surgery, const Link& link) {
  if (link.wdm_channel < 0) return false;
  const int ra = surgery.ring_of[static_cast<std::size_t>(link.a)];
  if (ra < 0 || ra != surgery.ring_of[static_cast<std::size_t>(link.b)]) return false;
  const auto key = std::minmax(surgery.slot_of[static_cast<std::size_t>(link.a)],
                               surgery.slot_of[static_cast<std::size_t>(link.b)]);
  return surgery.severed[static_cast<std::size_t>(ra)].contains({key.first, key.second});
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> severed_lightpaths(const BuiltTopology& topo,
                                                          const std::vector<FiberCut>& cuts) {
  const RingSurgery surgery = plan_surgery(topo, cuts);
  std::vector<std::pair<NodeId, NodeId>> out;
  for (std::size_t r = 0; r < topo.quartz_rings.size(); ++r) {
    const auto& ring = topo.quartz_rings[r];
    for (const auto& [src, dst] : surgery.severed[r]) {
      out.emplace_back(ring[static_cast<std::size_t>(src)], ring[static_cast<std::size_t>(dst)]);
    }
  }
  return out;
}

std::vector<LinkId> severed_links(const BuiltTopology& topo, const std::vector<FiberCut>& cuts) {
  const RingSurgery surgery = plan_surgery(topo, cuts);
  std::vector<LinkId> out;
  for (const LinkId id : topo.graph.link_ids()) {
    if (link_severed(surgery, topo.graph.link(id))) out.push_back(id);
  }
  return out;
}

SurvivalOutcome try_survive_fiber_cuts(const BuiltTopology& topo,
                                       const std::vector<FiberCut>& cuts) {
  const RingSurgery surgery = plan_surgery(topo, cuts);

  SurvivalOutcome outcome;
  BuiltTopology& survivor = outcome.degraded;
  survivor.name = topo.name + "-degraded";
  Graph& graph = survivor.graph;

  // Recreate the switch-model table, preserving model indices (node ids
  // are preserved automatically because insertion order is).
  std::vector<int> model_translate;
  {
    int max_model = -1;
    for (const auto& node : topo.graph.nodes()) {
      if (node.kind == NodeKind::kSwitch) max_model = std::max(max_model, node.model);
    }
    model_translate.assign(static_cast<std::size_t>(max_model) + 1, -1);
    for (const auto& node : topo.graph.nodes()) {
      if (node.kind != NodeKind::kSwitch) continue;
      auto& slot = model_translate[static_cast<std::size_t>(node.model)];
      if (slot < 0) slot = graph.add_model(topo.graph.model_of(node.id));
    }
  }
  for (const auto& node : topo.graph.nodes()) {
    if (node.kind == NodeKind::kSwitch) {
      graph.add_switch(model_translate[static_cast<std::size_t>(node.model)], node.label,
                       node.rack);
    } else {
      graph.add_host(node.label, node.rack);
    }
  }

  for (const LinkId id : topo.graph.link_ids()) {
    const Link& link = topo.graph.link(id);
    if (link_severed(surgery, link)) {
      ++outcome.severed;
      continue;
    }
    graph.add_link(link.a, link.b, topo.graph.rate(id), topo.graph.propagation(id),
                   link.wdm_ring, link.wdm_channel);
  }

  survivor.hosts = topo.hosts;
  survivor.tors = topo.tors;
  survivor.aggs = topo.aggs;
  survivor.cores = topo.cores;
  survivor.quartz_rings = topo.quartz_rings;
  survivor.host_groups = topo.host_groups;
  survivor.composite = topo.composite;
  outcome.components = static_cast<int>(graph.component_count());
  outcome.partitioned = outcome.components > 1;
  return outcome;
}

BuiltTopology survive_fiber_cuts(const BuiltTopology& topo, const std::vector<FiberCut>& cuts) {
  SurvivalOutcome outcome = try_survive_fiber_cuts(topo, cuts);
  QUARTZ_CHECK(!outcome.partitioned, "fiber cuts partitioned the mesh");
  outcome.degraded.graph.validate();
  return std::move(outcome.degraded);
}

}  // namespace quartz::topo
