#include "routing/oracle.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "common/check.hpp"
#include "routing/fib.hpp"
#include "snapshot/io.hpp"

namespace quartz::routing {
namespace {

/// Hash-pick among the equal-cost links not known dead; falls back to
/// the full set when every candidate is dead (`any_alive` reports
/// which case happened).
topo::LinkId select_alive(std::span<const topo::LinkId> links, const FailureView* view,
                          std::uint64_t flow_hash, std::uint64_t salt, bool* any_alive) {
  if (view != nullptr) {
    const auto alive = [view](topo::LinkId l) { return !view->is_dead(l); };
    const auto count = static_cast<std::size_t>(std::count_if(links.begin(), links.end(), alive));
    if (count > 0) {
      if (any_alive != nullptr) *any_alive = true;
      return nth_kept(links, hash_select(flow_hash, salt, count), alive);
    }
    if (any_alive != nullptr) *any_alive = false;
  } else if (any_alive != nullptr) {
    *any_alive = true;
  }
  return links[hash_select(flow_hash, salt, links.size())];
}

/// A destination to compile a group entry against: any member other
/// than the node itself (the shared span is identical across members).
/// kInvalidNode when the group is just the node.
topo::NodeId representative_dst(const EcmpRouting& routing, std::int32_t group,
                                topo::NodeId node) {
  for (const topo::NodeId dst : routing.group_members(group)) {
    if (dst != node) return dst;
  }
  return topo::kInvalidNode;
}

}  // namespace

double flow_uniform(std::uint64_t flow_hash) {
  const std::uint64_t salted = mix_hash(flow_hash ^ 0x564C4221ull);  // "VLB!"
  return static_cast<double>(salted >> 11) * 0x1.0p-53;
}

void RoutingOracle::set_soft_fail_threshold(double loss) {
  QUARTZ_REQUIRE(loss >= 0.0 && loss < 1.0, "soft-fail threshold must be in [0,1)");
  soft_fail_threshold_ = loss;
  bump_version();
}

void RoutingOracle::compile_entry(topo::NodeId, std::int32_t, FibCompiler& out) const {
  out.emit_slow();
}

double EcmpOracle::loss_of(topo::LinkId link) const {
  if (link_dead(link)) return 1.0;
  return link_loss(link);
}

topo::LinkId EcmpOracle::next_link(topo::NodeId node, FlowKey& key) const {
  // A deflection set by an earlier hop completes on arrival.
  if (key.via == node) key.via = topo::kInvalidNode;

  const auto links = routing_->next_links(node, key.dst);
  QUARTZ_CHECK(!links.empty(), "no route from node toward destination");
  bool any_alive = true;
  const topo::LinkId chosen = select_alive(links, failure_view(), key.flow_hash,
                                           static_cast<std::uint64_t>(node), &any_alive);
  const double direct_loss = any_alive ? loss_of(chosen) : 1.0;
  if (direct_loss <= soft_fail_threshold()) return chosen;

  // Every equal-cost next hop is known dead — or the choice is a gray
  // failure losing more than the soft-fail threshold: deflect one hop
  // to the closest neighbouring switch that still has a live
  // shortest-path link toward the destination (in a Quartz mesh this is
  // exactly the two-hop detour over the surviving lightpaths), provided
  // the deflection's combined observed loss beats staying direct.
  const topo::Graph& graph = routing_->graph();
  const int here = routing_->distance(node, key.dst);
  struct Deflection {
    int distance;  ///< the peer's hop distance to the destination
    double loss;   ///< combined observed loss over the peer
  };
  const auto deflection = [&](const topo::Adjacency& adj) -> std::optional<Deflection> {
    if (link_dead(adj.link) || !graph.is_switch(adj.peer)) return std::nullopt;
    const int d = routing_->distance(adj.peer, key.dst);
    if (d < 0 || (here >= 0 && d > here)) return std::nullopt;  // never deflect backward
    double exit_loss = 1.0;  // best (lowest-loss) live exit at the peer
    for (const topo::LinkId l : routing_->next_links(adj.peer, key.dst)) {
      if (link_dead(l)) continue;
      exit_loss = std::min(exit_loss, loss_of(l));
    }
    if (exit_loss >= 1.0) return std::nullopt;  // peer has no live exit
    const double combined = 1.0 - (1.0 - loss_of(adj.link)) * (1.0 - exit_loss);
    if (combined >= direct_loss) return std::nullopt;  // no better than staying direct
    return Deflection{d, combined};
  };
  // First pass: the closest peers, then the lowest combined loss (ties
  // within 1e-12 of the loss that opened the run).  Remember where the
  // final run of ties opens and how long it is.
  const auto neighbors = graph.neighbors(node);
  int best = -1;
  double best_loss = direct_loss;
  std::size_t run_start = 0;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const auto option = deflection(neighbors[i]);
    if (!option || (best >= 0 && option->distance > best)) continue;
    if (best < 0 || option->distance < best || option->loss < best_loss - 1e-12) {
      best = option->distance;
      best_loss = option->loss;
      run_start = i;
      ties = 0;
    }
    if (option->loss <= best_loss + 1e-12) ++ties;
  }
  // No live escape: forward onto the dead/lossy link and let the
  // simulator drop and count it (the blackhole inside the detection
  // window, or the gray link's residual loss).
  if (ties == 0) return chosen;
  // Second pass: hash-pick among the ties, walking from the run's start.
  const topo::Adjacency pick = nth_kept(
      neighbors.subspan(run_start), hash_select(key.flow_hash, 0x4445544Full, ties),  // "DETO"
      [&](const topo::Adjacency& adj) {
        const auto option = deflection(adj);
        return option && option->distance == best && option->loss <= best_loss + 1e-12;
      });
  key.via = pick.peer;
  return pick.link;
}

void EcmpOracle::compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const {
  const EcmpRouting& routing = *routing_;
  if (node == routing.group_switch(group)) {
    // Shared ToR delivering to its own hosts: fast only when every
    // member's port is alive and clean, otherwise the deflection scan
    // may engage for some destinations.
    for (const topo::NodeId dst : routing.group_members(group)) {
      const topo::LinkId port = routing.host_link(dst);
      if (link_dead(port) || link_loss(port) > soft_fail_threshold()) return out.emit_slow();
    }
    out.set_clear_own_via();
    return out.emit_host_port();
  }
  const topo::NodeId dst = representative_dst(routing, group, node);
  if (dst == topo::kInvalidNode) return out.emit_slow();
  const auto links = routing.next_links(node, dst);
  if (links.empty()) return out.emit_slow();
  for (const topo::LinkId l : links) {
    if (!link_dead(l)) out.add_candidate(l);
  }
  // All dead, or some alive candidate over the loss threshold: the
  // per-flow deflection scan decides — stay slow.
  if (out.candidates().empty()) return out.emit_slow();
  for (const topo::LinkId l : out.candidates()) {
    if (link_loss(l) > soft_fail_threshold()) return out.emit_slow();
  }
  out.set_clear_own_via();
  out.emit_ecmp();
}

MeshAwareOracle::MeshAwareOracle(const EcmpRouting& routing,
                                 const std::vector<std::vector<topo::NodeId>>& rings)
    : routing_(&routing), rings_(rings) {
  const topo::Graph& graph = routing.graph();
  const std::size_t n = graph.node_count();
  ring_index_.assign(n, -1);
  mesh_pos_.assign(n, -1);
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    for (const topo::NodeId sw : rings_[r]) {
      ring_index_[static_cast<std::size_t>(sw)] = static_cast<int>(r);
      if (mesh_pos_[static_cast<std::size_t>(sw)] < 0) {
        mesh_pos_[static_cast<std::size_t>(sw)] = static_cast<std::int32_t>(mesh_slots_++);
      }
    }
  }
  mesh_matrix_.assign(mesh_slots_ * mesh_slots_, topo::kInvalidLink);
  for (const topo::LinkId id : graph.link_ids()) {
    const topo::Link& link = graph.link(id);
    const int ra = ring_of(link.a);
    if (ra < 0 || ra != ring_of(link.b)) continue;
    const auto pa = static_cast<std::size_t>(mesh_pos_[static_cast<std::size_t>(link.a)]);
    const auto pb = static_cast<std::size_t>(mesh_pos_[static_cast<std::size_t>(link.b)]);
    // First lightpath between the pair wins; parallel channels map to
    // the same logical mesh edge for routing purposes.
    if (mesh_matrix_[pa * mesh_slots_ + pb] == topo::kInvalidLink) {
      mesh_matrix_[pa * mesh_slots_ + pb] = id;
      mesh_matrix_[pb * mesh_slots_ + pa] = id;
    }
  }
}

topo::LinkId MeshAwareOracle::ecmp_choice(topo::NodeId node, const FlowKey& key) const {
  const auto links = routing_->next_links(node, key.dst);
  QUARTZ_CHECK(!links.empty(), "no route from node toward destination");
  return select_alive(links, failure_view(), key.flow_hash, static_cast<std::uint64_t>(node),
                      nullptr);
}

topo::LinkId MeshAwareOracle::follow_via(topo::NodeId node, FlowKey& key) const {
  if (key.via == topo::kInvalidNode) return topo::kInvalidLink;
  if (node == key.via) {
    key.via = topo::kInvalidNode;
    return topo::kInvalidLink;  // arrived; caller resumes its policy
  }
  const topo::LinkId direct = mesh_link(node, key.via);
  QUARTZ_CHECK(direct != topo::kInvalidLink, "detour intermediate is not a ring peer");
  if (link_dead(direct)) {
    // The detour leg itself died since the decision: abandon the detour
    // and let the caller's policy (with healing) re-decide.
    key.via = topo::kInvalidNode;
    return topo::kInvalidLink;
  }
  return direct;
}

topo::LinkId MeshAwareOracle::heal_choice(topo::NodeId node, FlowKey& key,
                                          topo::LinkId chosen) const {
  const bool direct_dead = link_dead(chosen);
  const double direct_loss = direct_dead ? 1.0 : link_loss(chosen);
  if (!direct_dead && direct_loss <= soft_fail_threshold()) return chosen;
  const int r = ring_of(node);
  if (r < 0) return chosen;
  const topo::NodeId exit = routing().graph().link(chosen).other(node);
  if (ring_of(exit) != r) return chosen;
  // node -> w -> exit over surviving lightpaths, keeping the detours
  // with the lowest combined observed loss — and only when that beats
  // staying on the direct lightpath (a dead direct counts as loss 1).
  const auto detour_loss = [&](topo::NodeId w) -> std::optional<double> {
    if (w == node || w == exit) return std::nullopt;
    const topo::LinkId leg1 = mesh_link(node, w);
    const topo::LinkId leg2 = mesh_link(w, exit);
    if (leg1 == topo::kInvalidLink || leg2 == topo::kInvalidLink) return std::nullopt;
    if (link_dead(leg1) || link_dead(leg2)) return std::nullopt;
    const double combined = 1.0 - (1.0 - link_loss(leg1)) * (1.0 - link_loss(leg2));
    if (combined >= direct_loss) return std::nullopt;  // detour no better than direct
    return combined;
  };
  // First pass: where the final run of lowest-loss ties (within 1e-12
  // of the loss that opened the run) starts, and how long it is.
  const std::span<const topo::NodeId> members = ring(r);
  double best_loss = direct_loss;
  std::size_t run_start = 0;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto combined = detour_loss(members[i]);
    if (!combined) continue;
    if (ties == 0 || *combined < best_loss - 1e-12) {
      best_loss = *combined;
      run_start = i;
      ties = 0;
    }
    if (*combined <= best_loss + 1e-12) ++ties;
  }
  // Nothing survives (or nothing beats the direct loss): forward onto
  // the dead/lossy lightpath and let the simulator drop and count it.
  if (ties == 0) return chosen;
  // Second pass: hash-pick among the ties, walking from the run's start.
  const topo::NodeId via = nth_kept(
      members.subspan(run_start), hash_select(key.flow_hash, 0x4845414Cull, ties),  // "HEAL"
      [&](topo::NodeId w) {
        const auto combined = detour_loss(w);
        return combined && *combined <= best_loss + 1e-12;
      });
  key.via = via;
  key.vlb_done = true;  // the healing detour consumes the detour budget
  return mesh_link(node, via);
}

MeshAwareOracle::CandidateSet MeshAwareOracle::analyze_candidates(
    topo::NodeId node, std::span<const topo::LinkId> links, FibCompiler& out) const {
  CandidateSet set;
  for (const topo::LinkId l : links) {
    if (!link_dead(l)) out.add_candidate(l);
  }
  if (out.candidates().empty()) {
    set.fallback = true;
    for (const topo::LinkId l : links) out.add_candidate(l);
  }
  const int r = ring_of(node);
  const topo::Graph& graph = routing().graph();
  for (const topo::LinkId l : out.candidates()) {
    if (link_loss(l) > soft_fail_threshold()) set.clean = false;
    if (r >= 0 && ring_of(graph.link(l).other(node)) == r) ++set.mesh_exits;
  }
  return set;
}

VlbOracle::VlbOracle(const EcmpRouting& routing,
                     const std::vector<std::vector<topo::NodeId>>& rings, double fraction)
    : MeshAwareOracle(routing, rings), fraction_(fraction) {
  QUARTZ_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "VLB fraction must be in [0,1]");
}

bool VlbOracle::detour_eligible(topo::NodeId node, topo::NodeId exit, topo::NodeId w) const {
  if (w == node || w == exit) return false;
  const topo::LinkId leg1 = mesh_link(node, w);
  QUARTZ_CHECK(leg1 != topo::kInvalidLink, "ring is not fully meshed");
  const topo::LinkId leg2 = mesh_link(w, exit);
  return !link_dead(leg1) && (leg2 == topo::kInvalidLink || !link_dead(leg2));
}

topo::LinkId VlbOracle::next_link(topo::NodeId node, FlowKey& key) const {
  // Mid-detour: head for the chosen intermediate over the direct
  // lightpath, then resume shortest paths from there.
  if (const topo::LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
    return via_link;
  }

  const topo::LinkId chosen = ecmp_choice(node, key);
  if (!key.vlb_done) {
    const int r = ring_of(node);
    if (r >= 0) {
      const topo::NodeId next_hop = routing().graph().link(chosen).other(node);
      const bool in_mesh_hop = ring_of(next_hop) == r;
      if (in_mesh_hop) {
        // The flow's one-time VLB decision happens at its mesh ingress.
        key.vlb_done = true;
        const auto& members = ring(r);
        if (members.size() > 2 && flow_uniform(key.flow_hash) < fraction_) {
          // Pick the intermediate among ring members other than the
          // ingress and the direct exit, skipping any whose detour legs
          // are known dead.
          const auto eligible = [&](topo::NodeId w) { return detour_eligible(node, next_hop, w); };
          const auto count =
              static_cast<std::size_t>(std::count_if(members.begin(), members.end(), eligible));
          if (count > 0) {
            const topo::NodeId via =
                nth_kept(members, hash_select(key.flow_hash, 0x564C4232ull, count), eligible);
            key.via = via;
            return mesh_link(node, via);
          }
        }
      }
    }
  }
  return heal_choice(node, key, chosen);
}

void VlbOracle::compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const {
  const EcmpRouting& routing = this->routing();
  if (node == routing.group_switch(group)) {
    // Delivering ToR: the host port is never a mesh hop, so neither the
    // VLB roll nor healing engages — unconditionally fast.
    return out.emit_host_port();
  }
  const topo::NodeId dst = representative_dst(routing, group, node);
  if (dst == topo::kInvalidNode) return out.emit_slow();
  const auto links = routing.next_links(node, dst);
  if (links.empty()) return out.emit_slow();
  const CandidateSet set = analyze_candidates(node, links, out);
  const int r = ring_of(node);
  if (r < 0 || set.mesh_exits == 0) {
    // No candidate enters this node's mesh: the roll cannot trigger and
    // healing returns the choice unchanged (dead or lossy included) —
    // the plain hash pick is exact.
    return out.emit_ecmp();
  }
  if (!set.fallback && set.clean && out.candidates().size() == 1 && set.mesh_exits == 1) {
    // Unique alive, clean mesh exit: compile the mesh-ingress roll.
    const topo::LinkId direct = out.candidates()[0];
    const topo::NodeId next_hop = routing.graph().link(direct).other(node);
    const auto& members = ring(r);
    if (members.size() > 2) {
      for (const topo::NodeId w : members) {
        if (detour_eligible(node, next_hop, w)) out.add_detour({w, mesh_link(node, w)});
      }
    }
    return out.emit_vlb_roll(direct, members.size() > 2 ? fraction_ : 0.0);
  }
  // Dead or lossy mesh exits (healing engages per flow) or several
  // alive mesh exits (the detour set depends on the flow's hash pick).
  out.emit_slow();
}

PinnedDetourOracle::PinnedDetourOracle(const EcmpRouting& routing,
                                       const std::vector<std::vector<topo::NodeId>>& rings)
    : MeshAwareOracle(routing, rings),
      pin_to_dst_(routing.graph().node_count(), 0) {}

void PinnedDetourOracle::pin(topo::NodeId src_host, topo::NodeId dst_host,
                             topo::NodeId via_switch) {
  QUARTZ_CHECK(!regrooming_, "immediate pin() during an open regroom; use stage_pin");
  QUARTZ_REQUIRE(ring_of(via_switch) >= 0, "detour intermediate must be a ring switch");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src_host) << 32) | static_cast<std::uint32_t>(dst_host);
  pinned_[key] = via_switch;
  pin_to_dst_.at(static_cast<std::size_t>(dst_host)) = 1;
  bump_version();
}

void PinnedDetourOracle::begin_regroom() {
  QUARTZ_CHECK(!regrooming_, "regroom transaction already open");
  regrooming_ = true;
  staged_.clear();
}

void PinnedDetourOracle::stage_pin(topo::NodeId src_host, topo::NodeId dst_host,
                                   topo::NodeId via_switch) {
  QUARTZ_CHECK(regrooming_, "stage_pin outside a regroom transaction");
  QUARTZ_REQUIRE(routing().graph().is_host(src_host) && routing().graph().is_host(dst_host),
                 "pins connect host pairs");
  QUARTZ_REQUIRE(ring_of(via_switch) >= 0, "detour intermediate must be a ring switch");
  staged_.push_back({src_host, dst_host, via_switch});
}

void PinnedDetourOracle::stage_unpin(topo::NodeId src_host, topo::NodeId dst_host) {
  QUARTZ_CHECK(regrooming_, "stage_unpin outside a regroom transaction");
  staged_.push_back({src_host, dst_host, topo::kInvalidNode});
}

bool PinnedDetourOracle::detour_viable(topo::NodeId src, topo::NodeId dst,
                                       topo::NodeId via) const {
  const EcmpRouting& r = routing();
  const topo::NodeId src_tor = r.group_switch(r.group_of(src));
  const topo::NodeId dst_tor = r.group_switch(r.group_of(dst));
  if (src_tor == topo::kInvalidNode || dst_tor == topo::kInvalidNode) return false;
  if (via == src_tor || via == dst_tor) return false;  // not a two-hop detour
  const topo::LinkId leg1 = mesh_link(src_tor, via);
  const topo::LinkId leg2 = mesh_link(via, dst_tor);
  if (leg1 == topo::kInvalidLink || leg2 == topo::kInvalidLink) return false;
  return !link_dead(leg1) && !link_dead(leg2);
}

PinnedDetourOracle::RegroomResult PinnedDetourOracle::commit_regroom() {
  QUARTZ_CHECK(regrooming_, "commit_regroom without an open transaction");
  RegroomResult result;
  for (const StagedChange& change : staged_) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(change.src) << 32) | static_cast<std::uint32_t>(change.dst);
    if (change.via == topo::kInvalidNode) {
      if (pinned_.erase(key) != 0) ++result.removed;
    } else if (detour_viable(change.src, change.dst, change.via)) {
      pinned_[key] = change.via;
      ++result.applied;
    } else {
      // Make-before-break: the replacement path could not be verified,
      // so the pair keeps whatever route it had.
      ++result.rejected;
    }
  }
  staged_.clear();
  regrooming_ = false;
  rebuild_pin_to_dst();
  bump_version();
  return result;
}

void PinnedDetourOracle::abort_regroom() {
  QUARTZ_CHECK(regrooming_, "abort_regroom without an open transaction");
  staged_.clear();
  regrooming_ = false;
}

void PinnedDetourOracle::rebuild_pin_to_dst() {
  std::fill(pin_to_dst_.begin(), pin_to_dst_.end(), 0);
  for (const auto& [key, via] : pinned_) {
    (void)via;
    pin_to_dst_.at(static_cast<std::size_t>(key & 0xFFFFFFFFull)) = 1;
  }
}

void PinnedDetourOracle::save(snapshot::Writer& w) const {
  // Sort by pin key: unordered_map iteration order must not leak into
  // the snapshot bytes.
  std::vector<std::pair<std::uint64_t, topo::NodeId>> pins(pinned_.begin(),
                                                           pinned_.end());
  std::sort(pins.begin(), pins.end());
  w.put_u64(pins.size());
  for (const auto& [key, via] : pins) {
    w.put_u64(key);
    w.put_i32(via);
  }
  w.put_bool(regrooming_);
  w.put_u64(staged_.size());
  for (const StagedChange& change : staged_) {
    w.put_i32(change.src);
    w.put_i32(change.dst);
    w.put_i32(change.via);
  }
}

void PinnedDetourOracle::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(pinned_.empty() && !regrooming_,
                 "restore requires a fresh PinnedDetourOracle");
  const std::uint64_t pin_count = r.get_u64();
  for (std::uint64_t i = 0; i < pin_count; ++i) {
    const std::uint64_t key = r.get_u64();
    pinned_[key] = r.get_i32();
  }
  regrooming_ = r.get_bool();
  const std::uint64_t staged_count = r.get_count(3 * sizeof(std::int32_t));
  staged_.reserve(staged_count);
  for (std::uint64_t i = 0; i < staged_count; ++i) {
    StagedChange change;
    change.src = r.get_i32();
    change.dst = r.get_i32();
    change.via = r.get_i32();
    staged_.push_back(change);
  }
  rebuild_pin_to_dst();
  bump_version();
}

topo::LinkId PinnedDetourOracle::next_link(topo::NodeId node, FlowKey& key) const {
  QUARTZ_CHECK(!regrooming_,
               "routing during an open regroom transaction (half-applied plan)");
  if (const topo::LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
    return via_link;
  }
  if (!key.vlb_done) {
    const std::uint64_t pin_key =
        (static_cast<std::uint64_t>(key.src) << 32) | static_cast<std::uint32_t>(key.dst);
    const auto it = pinned_.find(pin_key);
    if (it != pinned_.end()) {
      const topo::NodeId via = it->second;
      // Arm the detour once the packet reaches a switch in the same
      // ring as the intermediate (its ToR).  A pin whose first leg is
      // known dead is skipped (healing takes over below).
      if (node != via && ring_of(node) >= 0 && ring_of(node) == ring_of(via) &&
          mesh_link(node, via) != topo::kInvalidLink && !link_dead(mesh_link(node, via))) {
        key.vlb_done = true;
        key.via = via;
        return mesh_link(node, via);
      }
      if (node == via) key.vlb_done = true;
    }
  }
  return heal_choice(node, key, ecmp_choice(node, key));
}

void PinnedDetourOracle::compile_entry(topo::NodeId node, std::int32_t group,
                                       FibCompiler& out) const {
  QUARTZ_CHECK(!regrooming_,
               "compiling routes during an open regroom transaction (half-applied plan)");
  const EcmpRouting& routing = this->routing();
  // Any pin toward any member makes the decision depend on key.src (and
  // on vlb state): the whole group stays slow, at every node.
  for (const topo::NodeId dst : routing.group_members(group)) {
    if (has_pin_to(dst)) return out.emit_slow();
  }
  if (node == routing.group_switch(group)) return out.emit_host_port();
  const topo::NodeId dst = representative_dst(routing, group, node);
  if (dst == topo::kInvalidNode) return out.emit_slow();
  const auto links = routing.next_links(node, dst);
  if (links.empty()) return out.emit_slow();
  const CandidateSet set = analyze_candidates(node, links, out);
  // Fast when healing provably returns the hash pick unchanged: the
  // node is outside any ring, every candidate is alive and clean, or
  // the (dead/lossy) candidates all exit the mesh where healing
  // declines to act.
  if (ring_of(node) < 0 || (!set.fallback && set.clean) || set.mesh_exits == 0) {
    return out.emit_ecmp();
  }
  out.emit_slow();
}

AdaptiveVlbOracle::AdaptiveVlbOracle(const EcmpRouting& routing,
                                     const std::vector<std::vector<topo::NodeId>>& rings,
                                     TimePs detour_threshold)
    : MeshAwareOracle(routing, rings), detour_threshold_(detour_threshold) {
  QUARTZ_REQUIRE(detour_threshold >= 0, "threshold cannot be negative");
}

TimePs AdaptiveVlbOracle::queue_delay_of(topo::NodeId from, topo::LinkId link) const {
  const topo::Link& l = routing().graph().link(link);
  return probe_->queue_delay(link, from == l.a ? 0 : 1);
}

topo::LinkId AdaptiveVlbOracle::next_link(topo::NodeId node, FlowKey& key) const {
  if (const topo::LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
    return via_link;
  }

  const topo::LinkId chosen = ecmp_choice(node, key);
  if (link_soft_failed(chosen)) return heal_choice(node, key, chosen);
  if (probe_ == nullptr) return chosen;

  const int r = ring_of(node);
  if (r < 0) return chosen;
  const topo::NodeId next_hop = routing().graph().link(chosen).other(node);
  if (ring_of(next_hop) != r) return chosen;

  // Flowlet stickiness: within the timeout, repeat the previous choice.
  const bool flowlets_on = flowlet_timeout_ > 0 && clock_ != nullptr;
  FlowletTable::Slot* state = nullptr;
  if (flowlets_on) {
    const std::uint64_t flowlet_key =
        mix_hash(key.flow_hash ^ (static_cast<std::uint64_t>(node) << 40));
    const TimePs now = clock_->sim_now();
    state = &flowlets_.acquire(flowlet_key, now, flowlet_timeout_);
    const bool fresh = state->last_seen != 0 && now - state->last_seen <= flowlet_timeout_;
    state->last_seen = now;
    if (fresh) {
      // Stick with the previous choice while it stays healthy; a sticky
      // path whose queue has blown past the threshold forces a
      // re-decision (accepting the rare reorder) rather than pinning
      // the flow to a saturating link.
      if (state->via == topo::kInvalidNode) {
        if (queue_delay_of(node, chosen) <= detour_threshold_) return chosen;
      } else if (state->via != next_hop) {
        const topo::LinkId sticky = mesh_link(node, state->via);
        if (sticky != topo::kInvalidLink && !link_dead(sticky) &&
            queue_delay_of(node, sticky) <= detour_threshold_) {
          key.via = state->via;
          return sticky;
        }
      }
    }
  }

  auto decide_direct = [&]() {
    if (state != nullptr) state->via = topo::kInvalidNode;
    return chosen;
  };

  // Direct lightpath healthy: take it.
  if (queue_delay_of(node, chosen) <= detour_threshold_) return decide_direct();

  // Congested: detour through the least-loaded intermediate whose
  // first-hop queue beats the direct one.
  topo::LinkId best_link = chosen;
  TimePs best_delay = queue_delay_of(node, chosen);
  topo::NodeId best_via = topo::kInvalidNode;
  for (const topo::NodeId w : ring(r)) {
    if (w == node || w == next_hop) continue;
    const topo::LinkId first = mesh_link(node, w);
    if (first == topo::kInvalidLink || link_dead(first)) continue;
    const topo::LinkId second = mesh_link(w, next_hop);
    if (second != topo::kInvalidLink && link_dead(second)) continue;
    const TimePs delay = queue_delay_of(node, first);
    if (delay < best_delay) {
      best_delay = delay;
      best_link = first;
      best_via = w;
    }
  }
  if (best_via != topo::kInvalidNode) {
    if (state != nullptr) state->via = best_via;
    key.via = best_via;
    return best_link;
  }
  return decide_direct();
}

void AdaptiveVlbOracle::compile_entry(topo::NodeId node, std::int32_t group,
                                      FibCompiler& out) const {
  const EcmpRouting& routing = this->routing();
  if (node == routing.group_switch(group)) {
    // Host port: never a mesh hop, so neither healing nor the adaptive
    // detour engages, whatever its health — unconditionally fast.
    return out.emit_host_port();
  }
  const topo::NodeId dst = representative_dst(routing, group, node);
  if (dst == topo::kInvalidNode) return out.emit_slow();
  const auto links = routing.next_links(node, dst);
  if (links.empty()) return out.emit_slow();
  const CandidateSet set = analyze_candidates(node, links, out);
  if (set.fallback) {
    // All dead: the (dead) pick is soft-failed and heals, which is a
    // no-op only when no candidate re-enters the mesh.
    if (set.mesh_exits == 0) return out.emit_ecmp();
    return out.emit_slow();
  }
  if (!set.clean) return out.emit_slow();  // soft-failed candidates heal per flow
  if (probe_ == nullptr || ring_of(node) < 0 || set.mesh_exits == 0) {
    // Degenerate ECMP: no probe, or no mesh hop to adapt over.
    return out.emit_ecmp();
  }
  // Queue-adaptive (and possibly flowlet-sticky) mesh ingress: the
  // decision depends on instantaneous load — inherently slow-path.
  out.emit_slow();
}

SpanningTreeOracle::SpanningTreeOracle(const topo::Graph& graph, topo::NodeId root)
    : graph_(&graph),
      parent_(graph.node_count(), topo::kInvalidNode),
      parent_link_(graph.node_count(), topo::kInvalidLink),
      depth_(graph.node_count(), -1) {
  depth_[static_cast<std::size_t>(root)] = 0;
  std::deque<topo::NodeId> queue{root};
  while (!queue.empty()) {
    const topo::NodeId u = queue.front();
    queue.pop_front();
    for (const auto& adj : graph.neighbors(u)) {
      if (depth_[static_cast<std::size_t>(adj.peer)] >= 0) continue;
      depth_[static_cast<std::size_t>(adj.peer)] = depth_[static_cast<std::size_t>(u)] + 1;
      parent_[static_cast<std::size_t>(adj.peer)] = u;
      parent_link_[static_cast<std::size_t>(adj.peer)] = adj.link;
      queue.push_back(adj.peer);
    }
  }
  for (const auto& node : graph.nodes()) {
    QUARTZ_CHECK(depth_[static_cast<std::size_t>(node.id)] >= 0,
                 "spanning tree root does not reach every node");
  }
}

topo::LinkId SpanningTreeOracle::next_link(topo::NodeId node, FlowKey& key) const {
  QUARTZ_REQUIRE(node != key.dst, "packet already at destination");
  // Descend when `node` is an ancestor of dst on the tree; otherwise
  // climb toward the root.
  topo::NodeId a = key.dst;
  while (depth_[static_cast<std::size_t>(a)] > depth_[static_cast<std::size_t>(node)] + 1) {
    a = parent_[static_cast<std::size_t>(a)];
  }
  if (depth_[static_cast<std::size_t>(a)] == depth_[static_cast<std::size_t>(node)] + 1 &&
      parent_[static_cast<std::size_t>(a)] == node) {
    return parent_link_[static_cast<std::size_t>(a)];
  }
  QUARTZ_CHECK(parent_link_[static_cast<std::size_t>(node)] != topo::kInvalidLink,
               "root has no parent but is not an ancestor of dst");
  return parent_link_[static_cast<std::size_t>(node)];
}

}  // namespace quartz::routing
