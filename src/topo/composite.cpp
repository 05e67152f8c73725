#include "topo/composite.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "wavelength/assign.hpp"

namespace quartz::topo {
namespace {

bool parse_int(std::string_view text, int* out) {
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, *out);
  return result.ec == std::errc{} && result.ptr == end;
}

/// Why `spec` cannot be built, or empty when it can.
std::string spec_error(const CompositeSpec& spec) {
  if (spec.kind != "ring-of-rings" && spec.kind != "ring-of-trees") {
    return "unknown composite kind '" + spec.kind + "' (ring-of-rings | ring-of-trees)";
  }
  if (spec.levels() < 2 || spec.levels() > 4) {
    return "composite spec wants 2..4 levels, e.g. ring-of-rings:8x8";
  }
  for (const int d : spec.dims) {
    if (d < 2 || d > 4096) return "composite dims must be in [2, 4096]";
  }
  if (spec.kind == "ring-of-rings" && spec.dims.back() > wavelength::kMaxRingSize) {
    return "ring-of-rings leaf rings hold at most " + std::to_string(wavelength::kMaxRingSize) +
           " switches, got " + std::to_string(spec.dims.back());
  }
  if (spec.switch_count() > std::numeric_limits<NodeId>::max()) {
    return "composite spec has " + std::to_string(spec.switch_count()) +
           " switches, more than a node id can number";
  }
  return {};
}

/// A plain Quartz ring element: exactly one ring covering every switch.
bool is_plain_ring(const BuiltTopology& e) {
  return !e.composite && e.quartz_rings.size() == 1 && e.aggs.empty() && e.cores.empty() &&
         e.quartz_rings[0].size() == e.tors.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec grammar

std::int64_t CompositeSpec::switch_count() const {
  std::int64_t total = 1;
  for (const int d : dims) total *= d;
  if (kind == "ring-of-trees") {
    // One aggregation switch per leaf pod on top of the ToRs.
    std::int64_t pods = 1;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) pods *= dims[l];
    total += pods;
  }
  return total;
}

std::optional<CompositeSpec> CompositeSpec::parse(std::string_view text, std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<CompositeSpec> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  CompositeSpec spec;
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) return fail("composite spec wants kind:dims, e.g. ring-of-rings:8x8");
  spec.kind = std::string(text.substr(0, colon));
  std::string_view rest = text.substr(colon + 1);

  if (const auto plus = rest.find('+'); plus != std::string_view::npos) {
    if (!parse_int(rest.substr(plus + 1), &spec.modeled_hosts_per_switch) ||
        spec.modeled_hosts_per_switch < 1) {
      return fail("bad +modeled-hosts suffix in composite spec");
    }
    rest = rest.substr(0, plus);
  }
  if (const auto at = rest.find('@'); at != std::string_view::npos) {
    if (!parse_int(rest.substr(at + 1), &spec.hosts_per_switch) || spec.hosts_per_switch < 1) {
      return fail("bad @hosts-per-switch suffix in composite spec");
    }
    rest = rest.substr(0, at);
  }

  while (!rest.empty()) {
    const auto x = rest.find('x');
    const std::string_view dim = rest.substr(0, x);
    int value = 0;
    if (!parse_int(dim, &value) || value < 2 || value > 4096) {
      return fail("composite dims must be integers in [2, 4096], got '" + std::string(dim) + "'");
    }
    spec.dims.push_back(value);
    if (x == std::string_view::npos) break;
    rest = rest.substr(x + 1);
    if (rest.empty()) return fail("trailing 'x' in composite dims");
  }
  if (std::string problem = spec_error(spec); !problem.empty()) return fail(std::move(problem));
  return spec;
}

std::string CompositeSpec::to_string() const {
  std::string out = kind + ":";
  for (std::size_t l = 0; l < dims.size(); ++l) {
    if (l > 0) out += 'x';
    out += std::to_string(dims[l]);
  }
  if (hosts_per_switch > 0) out += "@" + std::to_string(hosts_per_switch);
  if (modeled_hosts_per_switch > 0) out += "+" + std::to_string(modeled_hosts_per_switch);
  return out;
}

// ---------------------------------------------------------------------------
// Generic element-in-slot composition

BuiltTopology compose_in_ring(std::vector<BuiltTopology> elements, const ComposeParams& params) {
  const int n = static_cast<int>(elements.size());
  QUARTZ_REQUIRE(n >= 2, "composition needs at least two elements");
  QUARTZ_REQUIRE(params.trunks_per_pair >= 1, "trunks_per_pair must be positive");
  for (const auto& e : elements) {
    QUARTZ_REQUIRE(!e.tors.empty(), "every element needs ToR switches to carry trunks");
  }

  // Classify the children: the parent is uniform (HierOracle-routable)
  // when every slot holds the same-shape ring element.
  bool all_plain = is_plain_ring(elements[0]);
  bool all_uniform = elements[0].composite != nullptr && elements[0].composite->uniform;
  for (const auto& e : elements) {
    // && short-circuits, so the [0] accesses only run on ring elements.
    all_plain = all_plain && is_plain_ring(e) &&
                e.quartz_rings[0].size() == elements[0].quartz_rings[0].size();
    all_uniform = all_uniform && e.composite != nullptr && e.composite->uniform &&
                  e.composite->arity == elements[0].composite->arity;
  }
  const bool uniform = all_plain || all_uniform;

  BuiltTopology out;
  out.name = params.name;
  Graph& g = out.graph;
  const std::size_t trunk_count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) /
                                  2 * static_cast<std::size_t>(params.trunks_per_pair);
  std::size_t total_nodes = 0;
  std::size_t total_links = trunk_count;
  for (const auto& e : elements) {
    total_nodes += e.graph.node_count();
    total_links += e.graph.link_count();
  }
  g.reserve(total_nodes, total_links);

  // --- splice every element's graph and role lists.
  std::vector<NodeId> node_base(static_cast<std::size_t>(n));
  std::vector<LinkId> link_base(static_cast<std::size_t>(n));
  int rack_cursor = 0;
  int phys_cursor = 0;
  for (int i = 0; i < n; ++i) {
    const BuiltTopology& e = elements[static_cast<std::size_t>(i)];
    const Graph& cg = e.graph;
    node_base[static_cast<std::size_t>(i)] = static_cast<NodeId>(g.node_count());
    link_base[static_cast<std::size_t>(i)] = static_cast<LinkId>(g.link_count());
    const NodeId nbase = node_base[static_cast<std::size_t>(i)];

    std::vector<int> model_map;
    model_map.reserve(cg.models().size());
    for (const SwitchModel& model : cg.models()) model_map.push_back(g.add_model(model));
    const SpliceExtent extent = g.splice(cg, model_map, rack_cursor, phys_cursor);
    rack_cursor += extent.racks;
    phys_cursor += extent.wdm_rings;

    for (const NodeId h : e.hosts) out.hosts.push_back(nbase + h);
    for (const NodeId t : e.tors) out.tors.push_back(nbase + t);
    for (const NodeId a : e.aggs) out.aggs.push_back(nbase + a);
    for (const NodeId c : e.cores) out.cores.push_back(nbase + c);
    for (const auto& ring : e.quartz_rings) {
      auto& mapped = out.quartz_rings.emplace_back();
      mapped.reserve(ring.size());
      for (const NodeId sw : ring) mapped.push_back(nbase + sw);
    }
    for (const auto& group : e.host_groups) {
      auto& mapped = out.host_groups.emplace_back();
      mapped.reserve(group.size());
      for (const NodeId h : group) mapped.push_back(nbase + h);
    }
  }

  // --- trunk mesh between every element pair, gateway ports rotating
  // round-robin over each element's ToRs.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  const auto next_gateway = [&](int i) {
    const auto& tors = elements[static_cast<std::size_t>(i)].tors;
    const NodeId local = tors[cursor[static_cast<std::size_t>(i)]++ % tors.size()];
    return node_base[static_cast<std::size_t>(i)] + local;
  };
  std::vector<TrunkEntry> top(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      for (int t = 0; t < params.trunks_per_pair; ++t) {
        const NodeId gi = next_gateway(i);
        const NodeId gj = next_gateway(j);
        const LinkId link = g.add_link(gi, gj, params.trunk_rate, params.trunk_propagation);
        if (t == 0) {
          top[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(j)] = {gi, gj, link};
          top[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(i)] = {gj, gi, link};
        }
      }
    }
  }

  // --- hierarchy metadata.
  auto meta = std::make_shared<CompositeMeta>();
  meta->uniform = uniform;
  if (all_plain) {
    meta->arity = {n, static_cast<int>(elements[0].quartz_rings[0].size())};
  } else if (all_uniform) {
    meta->arity.push_back(n);
    const auto& child = elements[0].composite->arity;
    meta->arity.insert(meta->arity.end(), child.begin(), child.end());
  } else {
    meta->arity = {n};
  }
  const int levels = meta->levels();
  meta->parent_count.resize(static_cast<std::size_t>(levels));
  std::int64_t parents = 1;
  meta->level_offset.resize(static_cast<std::size_t>(levels) + 1);
  std::int32_t offset = 0;
  for (int l = 0; l < levels; ++l) {
    meta->parent_count[static_cast<std::size_t>(l)] = parents;
    parents *= meta->arity[static_cast<std::size_t>(l)];
    meta->level_offset[static_cast<std::size_t>(l)] = offset;
    offset += meta->arity[static_cast<std::size_t>(l)];
  }
  meta->level_offset[static_cast<std::size_t>(levels)] = offset;

  meta->path.assign(g.node_count() * static_cast<std::size_t>(levels), 0);
  for (int i = 0; i < n; ++i) {
    const BuiltTopology& e = elements[static_cast<std::size_t>(i)];
    const NodeId nbase = node_base[static_cast<std::size_t>(i)];
    const std::size_t child_nodes = e.graph.node_count();
    if (all_plain) {
      // slot of each switch within the child's ring; hosts inherit
      // their attachment switch's slot.
      std::vector<std::int32_t> slot(child_nodes, -1);
      const auto& ring = e.quartz_rings[0];
      for (std::size_t s = 0; s < ring.size(); ++s) {
        slot[static_cast<std::size_t>(ring[s])] = static_cast<std::int32_t>(s);
      }
      for (std::size_t v = 0; v < child_nodes; ++v) {
        std::int32_t sl = slot[v];
        if (sl < 0) {
          const auto peers = e.graph.neighbors(static_cast<NodeId>(v));
          QUARTZ_CHECK(!peers.empty(), "unattached host in ring element");
          sl = slot[static_cast<std::size_t>(peers[0].peer)];
        }
        const std::size_t at = (static_cast<std::size_t>(nbase) + v) * 2;
        meta->path[at] = i;
        meta->path[at + 1] = sl;
      }
    } else if (all_uniform) {
      const CompositeMeta& cm = *e.composite;
      const int child_levels = cm.levels();
      for (std::size_t v = 0; v < child_nodes; ++v) {
        const std::size_t at =
            (static_cast<std::size_t>(nbase) + v) * static_cast<std::size_t>(levels);
        meta->path[at] = i;
        for (int l = 0; l < child_levels; ++l) {
          meta->path[at + 1 + static_cast<std::size_t>(l)] =
              cm.path_at(static_cast<NodeId>(v), l);
        }
      }
    } else {
      for (std::size_t v = 0; v < child_nodes; ++v) {
        meta->path[static_cast<std::size_t>(nbase) + v] = i;
      }
    }
  }

  if (uniform) {
    meta->trunks.emplace_back(std::move(top));
    if (all_plain) {
      for (int i = 0; i < n; ++i) {
        const NodeId nbase = node_base[static_cast<std::size_t>(i)];
        for (const NodeId sw : elements[static_cast<std::size_t>(i)].quartz_rings[0]) {
          meta->leaf_members.push_back(nbase + sw);
        }
      }
    } else {
      // Lift each child's trunk tables one level down, and concatenate
      // leaf membership child-major (matching the mixed-radix index).
      const CompositeMeta& shape = *elements[0].composite;
      for (int l = 0; l + 1 < shape.levels(); ++l) {
        auto& table = meta->trunks.emplace_back();
        table.reserve(static_cast<std::size_t>(n) *
                      shape.trunks[static_cast<std::size_t>(l)].size());
        for (int i = 0; i < n; ++i) {
          const NodeId nbase = node_base[static_cast<std::size_t>(i)];
          const LinkId lbase = link_base[static_cast<std::size_t>(i)];
          for (TrunkEntry entry : elements[static_cast<std::size_t>(i)]
                                      .composite->trunks[static_cast<std::size_t>(l)]) {
            if (entry.link >= 0) {
              entry.gateway += nbase;
              entry.peer_gateway += nbase;
              entry.link += lbase;
            }
            table.push_back(entry);
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        const NodeId nbase = node_base[static_cast<std::size_t>(i)];
        for (const NodeId sw : elements[static_cast<std::size_t>(i)].composite->leaf_members) {
          meta->leaf_members.push_back(nbase + sw);
        }
      }
    }
  }

  meta->modeled_hosts = 0;
  int child_virtual = -1;
  bool virtual_consistent = true;
  for (const auto& e : elements) {
    meta->modeled_hosts += e.composite != nullptr ? e.composite->modeled_hosts
                                                  : static_cast<std::int64_t>(e.hosts.size());
    const int v = e.composite != nullptr ? e.composite->virtual_hosts_per_switch : 0;
    if (child_virtual < 0) child_virtual = v;
    virtual_consistent = virtual_consistent && v == child_virtual;
  }
  meta->virtual_hosts_per_switch = virtual_consistent && child_virtual > 0 ? child_virtual : 0;

  out.composite = std::move(meta);
  g.validate();
  return out;
}

// ---------------------------------------------------------------------------
// Homogeneous spec builder

namespace {

/// One leaf Quartz ring with short labels and per-switch racks; hosts
/// are materialized per the spec plus the foreground-slot override.
BuiltTopology build_leaf_ring(const CompositeParams& params, const wavelength::Assignment& plan,
                              std::int64_t leaf, std::int64_t* foreground_cursor) {
  const int m = params.spec.dims.back();
  BuiltTopology topo;
  topo.name = "leaf-ring";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  const std::string prefix = "L" + std::to_string(leaf);
  std::vector<NodeId> ring;
  ring.reserve(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    const NodeId sw = g.add_switch(model, prefix + "q" + std::to_string(s), s);
    ring.push_back(sw);
    topo.tors.push_back(sw);
    int hosts = params.spec.hosts_per_switch;
    if (*foreground_cursor < params.foreground_leaf_switches) {
      hosts = std::max(hosts, params.foreground_hosts_per_switch);
    }
    ++*foreground_cursor;
    for (int h = 0; h < hosts; ++h) {
      const NodeId host = g.add_host(prefix + "q" + std::to_string(s) + "h" + std::to_string(h), s);
      g.add_link(host, sw, params.links.host_rate, params.links.host_propagation);
      topo.hosts.push_back(host);
    }
  }
  add_quartz_mesh(g, ring, plan, params.mesh_rate, params.links.fabric_propagation,
                  params.channels_per_mux);
  topo.quartz_rings.push_back(std::move(ring));
  if (!topo.hosts.empty()) topo.host_groups.push_back(topo.hosts);
  return topo;
}

BuiltTopology build_leaf_tree(const CompositeParams& params, std::int64_t leaf) {
  TwoTierParams tree;
  tree.tors = params.spec.dims.back();
  tree.hosts_per_tor = std::max(1, params.spec.hosts_per_switch);
  tree.aggs = 1;
  tree.links = params.links;
  BuiltTopology pod = two_tier_tree(tree);
  pod.name = "pod" + std::to_string(leaf);
  return pod;
}

}  // namespace

BuiltTopology build_composite(const CompositeParams& params) {
  const CompositeSpec& spec = params.spec;
  const std::string problem = spec_error(spec);
  QUARTZ_REQUIRE(problem.empty(), problem);

  std::int64_t leaf_count = 1;
  for (std::size_t l = 0; l + 1 < spec.dims.size(); ++l) leaf_count *= spec.dims[l];

  // Every leaf ring has the same size, hence the same channel plan.
  const bool rings = spec.kind == "ring-of-rings";
  const wavelength::Assignment plan =
      rings ? wavelength::greedy_assign(spec.dims.back()) : wavelength::Assignment{};
  std::vector<BuiltTopology> elements;
  elements.reserve(static_cast<std::size_t>(leaf_count));
  std::int64_t foreground_cursor = 0;
  for (std::int64_t e = 0; e < leaf_count; ++e) {
    elements.push_back(rings ? build_leaf_ring(params, plan, e, &foreground_cursor)
                             : build_leaf_tree(params, e));
  }

  ComposeParams compose;
  compose.trunk_rate = params.trunk_rate;
  compose.trunk_propagation = params.trunk_propagation;
  for (int l = spec.levels() - 2; l >= 0; --l) {
    const int group = spec.dims[static_cast<std::size_t>(l)];
    std::vector<BuiltTopology> parents;
    parents.reserve(elements.size() / static_cast<std::size_t>(group));
    for (std::size_t i = 0; i < elements.size(); i += static_cast<std::size_t>(group)) {
      std::vector<BuiltTopology> chunk(
          std::make_move_iterator(elements.begin() + static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(elements.begin() +
                                  static_cast<std::ptrdiff_t>(i + static_cast<std::size_t>(group))));
      compose.name = "level" + std::to_string(l);
      parents.push_back(compose_in_ring(std::move(chunk), compose));
    }
    elements = std::move(parents);
  }
  QUARTZ_CHECK(elements.size() == 1, "composition did not converge to a single root");

  BuiltTopology out = std::move(elements.front());
  out.name = spec.to_string();
  if (spec.modeled_hosts_per_switch > 0 && out.composite != nullptr) {
    auto meta = std::make_shared<CompositeMeta>(*out.composite);
    meta->virtual_hosts_per_switch = spec.modeled_hosts_per_switch;
    meta->modeled_hosts += static_cast<std::int64_t>(spec.modeled_hosts_per_switch) *
                           static_cast<std::int64_t>(out.tors.size());
    out.composite = std::move(meta);
  }
  return out;
}

BuiltTopology build_composite(const CompositeSpec& spec) {
  CompositeParams params;
  params.spec = spec;
  return build_composite(params);
}

}  // namespace quartz::topo
