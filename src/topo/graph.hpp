// Port-accounted network graph shared by the topology builders, the
// routing layer, the packet simulator and the flow-level solver.
//
// Nodes are hosts or switches; links are full-duplex with a rate and a
// propagation delay.  Links built from a Quartz WDM mesh carry their
// physical ring index and wavelength channel so that fault analysis can
// map fiber cuts back to logical mesh edges.
//
// A link is a 16-byte record: its id is its index in links(), and its
// (rate, propagation) pair is interned in a per-graph link-class table,
// since a fabric uses only a handful of distinct pairs (a composite one
// per level).  Readers on a hot path index the class table directly:
// link_classes()[link.link_class].  The 16-bit class index caps a graph
// at 65,535 classes, and the WDM channel is stored in 16 bits.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "topo/switch_models.hpp"

namespace quartz::topo {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind { kHost, kSwitch };

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kHost;
  /// Index into Graph's switch-model table; -1 for hosts.
  int model = -1;
  /// Rack (locality group) label; -1 when unassigned.
  int rack = -1;
  std::string label;
};

/// A link's physical parameters, shared by every link of its class.
struct LinkClass {
  BitsPerSecond rate = 0;
  TimePs propagation = 0;
};

/// One full-duplex link; its id is its index in Graph::links().
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  /// Quartz metadata: physical ring and wavelength channel carrying
  /// this logical mesh edge; -1 for electrical/packet links.
  std::int32_t wdm_ring = -1;
  std::int16_t wdm_channel = -1;
  /// Index into Graph::link_classes().
  std::uint16_t link_class = 0;

  NodeId other(NodeId n) const { return n == a ? b : a; }
};
static_assert(sizeof(Link) == 16, "Link is a 16-byte record");

/// One adjacency entry: the link and the neighbour it reaches.
struct Adjacency {
  LinkId link = kInvalidLink;
  NodeId peer = kInvalidNode;
};

class Graph {
 public:
  /// Register a switch model; returns its index for add_switch().
  int add_model(const SwitchModel& model);

  NodeId add_host(std::string label, int rack = -1);
  NodeId add_switch(int model_index, std::string label, int rack = -1);

  LinkId add_link(NodeId a, NodeId b, BitsPerSecond rate, TimePs propagation,
                  int wdm_ring = -1, int wdm_channel = -1);

  /// Capacity hint for the builders that know their final size.
  void reserve(std::size_t nodes, std::size_t links);

  /// Appends all of `child` in one pass: node ids shift by node_count(),
  /// link ids by link_count(), child model i becomes model_map[i],
  /// child link classes are interned into this graph's, and racks / WDM
  /// rings shift by the given offsets (-1 stays -1).  Only nodes and
  /// links are copied; adjacency is derived from links_, so the result
  /// equals replaying the child's add_link calls.
  void splice(const Graph& child, std::span<const int> model_map, int rack_offset,
              int wdm_ring_offset);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const {
    QUARTZ_REQUIRE(id >= 0 && id < static_cast<LinkId>(links_.size()), "link id out of range");
    return links_[static_cast<std::size_t>(id)];
  }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::span<const Link> links() const { return links_; }
  /// Every link id, 0 .. link_count() - 1.
  std::ranges::iota_view<LinkId, LinkId> link_ids() const {
    return std::views::iota(LinkId{0}, static_cast<LinkId>(links_.size()));
  }
  /// Interned (rate, propagation) pairs, indexable by Link::link_class.
  std::span<const LinkClass> link_classes() const { return classes_; }
  const LinkClass& link_class(LinkId id) const { return classes_[link(id).link_class]; }
  BitsPerSecond rate(LinkId id) const { return link_class(id).rate; }
  TimePs propagation(LinkId id) const { return link_class(id).propagation; }
  const SwitchModel& model_of(NodeId id) const;
  /// Registered switch-model table (indexable by Node::model).
  const std::vector<SwitchModel>& models() const { return models_; }

  /// A node's incident links in increasing link id, each with its peer.
  /// The first read after a mutation builds the adjacency index; the
  /// span stays valid until the next mutation.
  std::span<const Adjacency> neighbors(NodeId id) const;
  /// Ports in use on a node (its degree); needs no adjacency index.
  std::size_t degree(NodeId id) const;

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> switches() const;
  bool is_host(NodeId id) const { return node(id).kind == NodeKind::kHost; }
  bool is_switch(NodeId id) const { return node(id).kind == NodeKind::kSwitch; }

  /// Whole-graph sanity: every switch within its model's port budget,
  /// hosts have exactly one (or more) links, graph connected, no self
  /// loops.  Throws std::logic_error with a diagnostic on violation.
  /// Works from degrees_ and links_ alone: it never builds the index.
  void validate() const;

  /// Connected components, by union-find over links_ (0 when empty).
  std::size_t component_count() const;

 private:
  /// Adjacency in compressed sparse rows, derived from links_: node v's
  /// entries are entries[offsets[v], offsets[v + 1]), its incident links
  /// in increasing id.  Built lazily by the first reader after a
  /// mutation; concurrent first readers serialise on the mutex.  A copy
  /// starts stale (the copy rebuilds on its first read); a move takes
  /// the built index along.
  class AdjacencyIndex {
   public:
    AdjacencyIndex() = default;
    AdjacencyIndex(const AdjacencyIndex&) {}
    AdjacencyIndex& operator=(const AdjacencyIndex&);
    AdjacencyIndex(AdjacencyIndex&& other) noexcept;
    AdjacencyIndex& operator=(AdjacencyIndex&& other) noexcept;

    /// Marks the index stale; callers hold the graph exclusively.
    void invalidate() { fresh_.store(false, std::memory_order_relaxed); }
    /// Node id's entries, building the index from `links` if stale.
    std::span<const Adjacency> row(std::size_t id, const std::vector<std::size_t>& degrees,
                                   std::span<const Link> links) const;

   private:
    mutable std::vector<std::size_t> offsets_;
    mutable std::vector<Adjacency> entries_;
    mutable std::atomic<bool> fresh_{false};
    mutable std::mutex build_;
  };

  /// Class index of (rate, propagation), adding a class on first use.
  std::uint16_t intern(BitsPerSecond rate, TimePs propagation);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<LinkClass> classes_;
  /// Class indices in (rate, propagation) order, for intern()'s search.
  std::vector<std::uint16_t> by_pair_;
  /// The class the last intern() returned: builders add runs of links
  /// of one class.
  std::uint16_t last_class_ = 0;
  /// Per-node link count, kept by the mutators.
  std::vector<std::size_t> degrees_;
  std::vector<SwitchModel> models_;
  AdjacencyIndex adjacency_;
};

}  // namespace quartz::topo
