#include "topo/composite.hpp"

#include <algorithm>
#include <charconv>
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
  if (hosts_per_switch > 0) out.append("@").append(std::to_string(hosts_per_switch));
  if (modeled_hosts_per_switch > 0) {
    out.append("+").append(std::to_string(modeled_hosts_per_switch));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One-pass builder

namespace {

/// Writes a composed fabric depth first into the final graph: each
/// element emits its leaf, or its child elements in slot order, and
/// then the trunk mesh between its children.  Every node, link and
/// metadata row is written once, in the order the pinned graph digests
/// fix (Composite.GraphDigestsArePinned).
class CompositeWriter {
 public:
  CompositeWriter(const CompositeParams& params, BuiltTopology& out, CompositeMeta& meta)
      : params_(params), spec_(params.spec), out_(out), meta_(meta), g_(out.graph) {
    coords_.resize(spec_.dims.size());
    if (rings()) {
      const int m = spec_.dims.back();
      plan_ = wavelength::greedy_assign(m);
      meta_.leaf_lightpath.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), -1);
      for (std::size_t i = 0; i < plan_.paths.size(); ++i) {
        const auto& p = plan_.paths[i];
        meta_.leaf_lightpath[static_cast<std::size_t>(p.src * m + p.dst)] =
            meta_.leaf_lightpath[static_cast<std::size_t>(p.dst * m + p.src)] =
                static_cast<std::int32_t>(i);
      }
    } else {
      TwoTierParams tree;
      tree.tors = spec_.dims.back();
      tree.hosts_per_tor = std::max(1, spec_.hosts_per_switch);
      tree.aggs = 1;
      tree.links = params_.links;
      pod_ = two_tier_tree(tree);
      model_map_.resize(pod_.graph.models().size());
    }

    // Exact final sizes, so the node and link arrays never regrow.
    std::int64_t leaves = 1;
    std::int64_t trunks = 0;
    for (std::size_t l = 0; l + 1 < spec_.dims.size(); ++l) {
      const std::int64_t a = spec_.dims[l];
      trunks += leaves * a * (a - 1) / 2;
      leaves *= a;
    }
    if (rings()) {
      const std::int64_t switches = leaves * spec_.dims.back();
      const std::int64_t islands =
          std::clamp<std::int64_t>(params_.foreground_leaf_switches, 0, switches);
      const std::int64_t hosts =
          switches * spec_.hosts_per_switch +
          islands * std::max(0, params_.foreground_hosts_per_switch - spec_.hosts_per_switch);
      g_.reserve(static_cast<std::size_t>(switches + hosts),
                 static_cast<std::size_t>(hosts + trunks) + static_cast<std::size_t>(leaves) *
                                                                plan_.paths.size());
      meta_.leaf_first_link.reserve(static_cast<std::size_t>(leaves));
    } else {
      g_.reserve(static_cast<std::size_t>(leaves) * pod_.graph.node_count(),
                 static_cast<std::size_t>(leaves) * pod_.graph.link_count() +
                     static_cast<std::size_t>(trunks));
    }
  }

  /// Writes the element at `level` whose length-`level` path prefix has
  /// mixed-radix index `parent`; the root is element(0, 0).
  void element(int level, std::int64_t parent) {
    if (level + 1 == spec_.levels()) {
      rings() ? leaf_ring() : leaf_pod();
      return;
    }
    const int a = spec_.dims[static_cast<std::size_t>(level)];
    const std::size_t first_tor = out_.tors.size();
    for (int c = 0; c < a; ++c) {
      coords_[static_cast<std::size_t>(level)] = c;
      element(level + 1, parent * a + c);
    }

    // Full trunk mesh between the children, gateways rotating
    // round-robin over each child's contiguous slice of out.tors: by
    // pair (i, j), child i has served j-1 trunks and child j has served i.
    const std::size_t k = (out_.tors.size() - first_tor) / static_cast<std::size_t>(a);
    const auto gateway = [&](int child, int served) {
      return out_.tors[first_tor + static_cast<std::size_t>(child) * k +
                       static_cast<std::size_t>(served) % k];
    };
    for (int i = 0; i < a; ++i) {
      for (int j = i + 1; j < a; ++j) {
        const NodeId gi = gateway(i, j - 1);
        const NodeId gj = gateway(j, i);
        const LinkId link =
            g_.add_link(gi, gj, params_.trunk_rate, params_.trunk_propagation);
        if (!meta_.uniform) continue;
        auto& table = meta_.trunks[static_cast<std::size_t>(level)];
        const auto at = [&](int from, int to) {
          return static_cast<std::size_t>((parent * a + from) * a + to);
        };
        table[at(i, j)] = {gi, gj, link};
        table[at(j, i)] = {gj, gi, link};
      }
    }
  }

 private:
  bool rings() const { return spec_.kind == "ring-of-rings"; }

  /// Appends the path of the node just added: the current element
  /// coordinates, then `slot` on the leaf level.
  void push_path(int slot) {
    if (meta_.uniform) {
      meta_.path.insert(meta_.path.end(), coords_.begin(), coords_.end() - 1);
      meta_.path.push_back(slot);
    } else {
      meta_.path.push_back(coords_.front());
    }
  }

  /// One leaf Quartz ring with short labels and per-switch racks; hosts
  /// are materialized per the spec plus the foreground-slot override.
  void leaf_ring() {
    const int m = spec_.dims.back();
    const int model = g_.add_model(params_.switch_model);
    const std::string prefix = std::string("L").append(std::to_string(leaf_));
    const std::size_t first_host = out_.hosts.size();
    meta_.leaf_first_link.push_back(static_cast<LinkId>(g_.link_count()));
    auto& ring = out_.quartz_rings.emplace_back();
    ring.reserve(static_cast<std::size_t>(m));
    for (int s = 0; s < m; ++s) {
      // The switch's index among all leaf switches, which is also its rack.
      const int rack = leaf_ * m + s;
      const NodeId sw = g_.add_switch(model, prefix + "q" + std::to_string(s), rack);
      push_path(s);
      ring.push_back(sw);
      out_.tors.push_back(sw);
      int hosts = spec_.hosts_per_switch;
      if (rack < params_.foreground_leaf_switches) {
        hosts = std::max(hosts, params_.foreground_hosts_per_switch);
      }
      for (int h = 0; h < hosts; ++h) {
        const NodeId host =
            g_.add_host(prefix + "q" + std::to_string(s) + "h" + std::to_string(h), rack);
        push_path(s);
        g_.add_link(host, sw, params_.links.host_rate, params_.links.host_propagation);
        out_.hosts.push_back(host);
      }
    }
    phys_ring_base_ += add_quartz_mesh(g_, ring, plan_, params_.mesh_rate,
                                       params_.links.fabric_propagation,
                                       params_.channels_per_mux, phys_ring_base_);
    meta_.leaf_members.insert(meta_.leaf_members.end(), ring.begin(), ring.end());
    if (out_.hosts.size() > first_host) {
      out_.host_groups.emplace_back(out_.hosts.begin() + static_cast<std::ptrdiff_t>(first_host),
                                    out_.hosts.end());
    }
    ++leaf_;
  }

  /// One stamp of the two-tier pod template, racks shifted per leaf.
  void leaf_pod() {
    const auto base = static_cast<NodeId>(g_.node_count());
    for (std::size_t i = 0; i < model_map_.size(); ++i) {
      model_map_[i] = g_.add_model(pod_.graph.models()[i]);
    }
    g_.splice(pod_.graph, model_map_, leaf_ * spec_.dims.back(), 0);
    for (std::size_t v = 0; v < pod_.graph.node_count(); ++v) push_path(0);
    for (const NodeId h : pod_.hosts) out_.hosts.push_back(base + h);
    for (const NodeId t : pod_.tors) out_.tors.push_back(base + t);
    for (const NodeId a : pod_.aggs) out_.aggs.push_back(base + a);
    for (const auto& group : pod_.host_groups) {
      auto& mapped = out_.host_groups.emplace_back();
      mapped.reserve(group.size());
      for (const NodeId h : group) mapped.push_back(base + h);
    }
    ++leaf_;
  }

  const CompositeParams& params_;
  const CompositeSpec& spec_;
  BuiltTopology& out_;
  CompositeMeta& meta_;
  Graph& g_;
  /// Coordinates of the element being written, outermost first.
  std::vector<std::int32_t> coords_;
  /// Leaves written so far; also the mixed-radix index of the next.
  int leaf_ = 0;
  /// Next free WDM physical-ring index: each leaf ring's range is disjoint.
  int phys_ring_base_ = 0;
  /// ring-of-rings: the channel plan every leaf ring shares.
  wavelength::Assignment plan_;
  /// ring-of-trees: the pod every leaf stamps, and its model remap.
  BuiltTopology pod_;
  std::vector<int> model_map_;
};

}  // namespace

BuiltTopology build_composite(const CompositeParams& params) {
  const CompositeSpec& spec = params.spec;
  const std::string problem = spec_error(spec);
  QUARTZ_REQUIRE(problem.empty(), problem);

  BuiltTopology out;
  out.name = spec.to_string();
  auto meta = std::make_shared<CompositeMeta>();
  // ring-of-rings is uniform at every level (HierOracle-routable);
  // ring-of-trees tags each node with its outermost slot only.
  const bool rings = spec.kind == "ring-of-rings";
  meta->uniform = rings;
  meta->arity = rings ? spec.dims : std::vector<int>{spec.dims.front()};
  const int levels = meta->levels();
  meta->parent_count.resize(static_cast<std::size_t>(levels));
  meta->level_offset.resize(static_cast<std::size_t>(levels) + 1);
  std::int64_t parents = 1;
  std::int32_t offset = 0;
  for (int l = 0; l < levels; ++l) {
    const int a = meta->arity[static_cast<std::size_t>(l)];
    meta->parent_count[static_cast<std::size_t>(l)] = parents;
    meta->level_offset[static_cast<std::size_t>(l)] = offset;
    if (rings && l + 1 < levels) {
      meta->trunks.emplace_back(static_cast<std::size_t>(parents * a * a));
    }
    parents *= a;
    offset += a;
  }
  meta->level_offset[static_cast<std::size_t>(levels)] = offset;

  CompositeWriter(params, out, *meta).element(0, 0);

  const int m = spec.modeled_hosts_per_switch;
  meta->virtual_hosts_per_switch = m;
  meta->modeled_hosts = static_cast<std::int64_t>(out.hosts.size()) +
                        static_cast<std::int64_t>(m) * static_cast<std::int64_t>(out.tors.size());
  out.composite = std::move(meta);
  out.graph.validate();
  return out;
}

BuiltTopology build_composite(const CompositeSpec& spec) {
  CompositeParams params;
  params.spec = spec;
  return build_composite(params);
}

}  // namespace quartz::topo
