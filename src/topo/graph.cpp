#include "topo/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace quartz::topo {

int Graph::add_model(const SwitchModel& model) {
  QUARTZ_REQUIRE(model.port_count > 0, "switch model needs ports");
  QUARTZ_REQUIRE(model.latency >= 0, "switch latency cannot be negative");
  models_.push_back(model);
  return static_cast<int>(models_.size() - 1);
}

NodeId Graph::add_host(std::string label, int rack) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kHost, -1, rack, std::move(label)});
  degrees_.push_back(0);
  adjacency_.invalidate();
  return id;
}

NodeId Graph::add_switch(int model_index, std::string label, int rack) {
  QUARTZ_REQUIRE(model_index >= 0 && model_index < static_cast<int>(models_.size()),
                 "unknown switch model");
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kSwitch, model_index, rack, std::move(label)});
  degrees_.push_back(0);
  adjacency_.invalidate();
  return id;
}

LinkId Graph::add_link(NodeId a, NodeId b, BitsPerSecond rate, TimePs propagation, int wdm_ring,
                       int wdm_channel) {
  QUARTZ_REQUIRE(a >= 0 && a < static_cast<NodeId>(nodes_.size()), "link endpoint a unknown");
  QUARTZ_REQUIRE(b >= 0 && b < static_cast<NodeId>(nodes_.size()), "link endpoint b unknown");
  QUARTZ_REQUIRE(a != b, "self loops are not allowed");
  QUARTZ_REQUIRE(rate > 0, "link rate must be positive");
  QUARTZ_REQUIRE(propagation >= 0, "propagation cannot be negative");
  QUARTZ_REQUIRE(wdm_channel >= std::numeric_limits<std::int16_t>::min() &&
                     wdm_channel <= std::numeric_limits<std::int16_t>::max(),
                 "wdm channel does not fit 16 bits");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, wdm_ring, static_cast<std::int16_t>(wdm_channel),
                        intern(rate, propagation)});
  ++degrees_[static_cast<std::size_t>(a)];
  ++degrees_[static_cast<std::size_t>(b)];
  adjacency_.invalidate();
  return id;
}

std::uint16_t Graph::intern(BitsPerSecond rate, TimePs propagation) {
  const std::pair want(rate, propagation);
  const auto pair_of = [this](std::uint16_t c) {
    return std::pair(classes_[c].rate, classes_[c].propagation);
  };
  if (last_class_ < classes_.size() && pair_of(last_class_) == want) return last_class_;
  const auto at = std::ranges::lower_bound(by_pair_, want, {}, pair_of);
  if (at != by_pair_.end() && pair_of(*at) == want) {
    last_class_ = *at;
    return last_class_;
  }
  QUARTZ_REQUIRE(classes_.size() < std::numeric_limits<std::uint16_t>::max(),
                 "link class count does not fit 16 bits");
  classes_.push_back(LinkClass{rate, propagation});
  last_class_ = static_cast<std::uint16_t>(classes_.size() - 1);
  by_pair_.insert(at, last_class_);
  return last_class_;
}

void Graph::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  degrees_.reserve(nodes);
  links_.reserve(links);
}

void Graph::splice(const Graph& child, std::span<const int> model_map, int rack_offset,
                   int wdm_ring_offset) {
  QUARTZ_REQUIRE(&child != this, "a graph cannot splice itself");
  QUARTZ_REQUIRE(model_map.size() == child.models_.size(),
                 "model map must cover the child's models");
  for (const int model : model_map) {
    QUARTZ_REQUIRE(model >= 0 && model < static_cast<int>(models_.size()), "unknown switch model");
  }
  QUARTZ_REQUIRE(rack_offset >= 0 && wdm_ring_offset >= 0, "splice offsets cannot be negative");
  const auto node_base = static_cast<NodeId>(nodes_.size());
  std::vector<std::uint16_t> class_map;
  class_map.reserve(child.classes_.size());
  for (const LinkClass& c : child.classes_) class_map.push_back(intern(c.rate, c.propagation));

  for (const Node& n : child.nodes_) {
    const int model =
        n.kind == NodeKind::kSwitch ? model_map[static_cast<std::size_t>(n.model)] : -1;
    nodes_.push_back(Node{node_base + n.id, n.kind, model, n.rack < 0 ? -1 : rack_offset + n.rack,
                          n.label});
  }
  degrees_.insert(degrees_.end(), child.degrees_.begin(), child.degrees_.end());
  for (const Link& l : child.links_) {
    links_.push_back(Link{node_base + l.a, node_base + l.b,
                          l.wdm_ring < 0 ? -1 : wdm_ring_offset + l.wdm_ring, l.wdm_channel,
                          class_map[l.link_class]});
  }
  adjacency_.invalidate();
}

const Node& Graph::node(NodeId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const SwitchModel& Graph::model_of(NodeId id) const {
  const Node& n = node(id);
  QUARTZ_REQUIRE(n.kind == NodeKind::kSwitch, "hosts have no switch model");
  return models_[static_cast<std::size_t>(n.model)];
}

std::span<const Adjacency> Graph::neighbors(NodeId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
  return adjacency_.row(static_cast<std::size_t>(id), degrees_, links_);
}

std::size_t Graph::degree(NodeId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
  return degrees_[static_cast<std::size_t>(id)];
}

Graph::AdjacencyIndex& Graph::AdjacencyIndex::operator=(const AdjacencyIndex&) {
  invalidate();
  return *this;
}

Graph::AdjacencyIndex::AdjacencyIndex(AdjacencyIndex&& other) noexcept
    : offsets_(std::move(other.offsets_)),
      entries_(std::move(other.entries_)),
      fresh_(other.fresh_.load(std::memory_order_relaxed)) {
  other.invalidate();
}

Graph::AdjacencyIndex& Graph::AdjacencyIndex::operator=(AdjacencyIndex&& other) noexcept {
  offsets_ = std::move(other.offsets_);
  entries_ = std::move(other.entries_);
  fresh_.store(other.fresh_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  other.invalidate();
  return *this;
}

std::span<const Adjacency> Graph::AdjacencyIndex::row(std::size_t id,
                                                      const std::vector<std::size_t>& degrees,
                                                      std::span<const Link> links) const {
  if (!fresh_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(build_);
    if (!fresh_.load(std::memory_order_relaxed)) {
      // Rows are sized by the kept degrees; filling them from the links
      // in id order leaves each row in increasing link id.
      offsets_.resize(degrees.size() + 1);
      offsets_[0] = 0;
      std::partial_sum(degrees.begin(), degrees.end(), offsets_.begin() + 1);
      entries_.resize(offsets_.back());
      std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
      for (std::size_t i = 0; i < links.size(); ++i) {
        const Link& l = links[i];
        const auto link = static_cast<LinkId>(i);
        entries_[fill[static_cast<std::size_t>(l.a)]++] = Adjacency{link, l.b};
        entries_[fill[static_cast<std::size_t>(l.b)]++] = Adjacency{link, l.a};
      }
      fresh_.store(true, std::memory_order_release);
    }
  }
  const Adjacency* base = entries_.data();
  return {base + offsets_[id], base + offsets_[id + 1]};
}

std::vector<NodeId> Graph::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kHost) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Graph::switches() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSwitch) out.push_back(n.id);
  }
  return out;
}

void Graph::validate() const {
  QUARTZ_CHECK(!nodes_.empty(), "graph is empty");

  for (const auto& n : nodes_) {
    const std::size_t deg = degrees_[static_cast<std::size_t>(n.id)];
    if (n.kind == NodeKind::kSwitch) {
      const auto& model = models_[static_cast<std::size_t>(n.model)];
      QUARTZ_CHECK(deg <= static_cast<std::size_t>(model.port_count),
                   "switch '" + n.label + "' exceeds its port count");
    } else {
      QUARTZ_CHECK(deg >= 1, "host '" + n.label + "' is unconnected");
    }
  }

  QUARTZ_CHECK(component_count() == 1, "graph is disconnected");
}

std::size_t Graph::component_count() const {
  std::vector<NodeId> parent(nodes_.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto root = [&parent](NodeId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      // Path halving: point v at its grandparent as we climb.
      auto& up = parent[static_cast<std::size_t>(v)];
      up = parent[static_cast<std::size_t>(up)];
      v = up;
    }
    return v;
  };
  std::size_t components = nodes_.size();
  for (const Link& l : links_) {
    const NodeId ra = root(l.a);
    const NodeId rb = root(l.b);
    if (ra == rb) continue;
    parent[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
    --components;
  }
  return components;
}

}  // namespace quartz::topo
