// Forwarding policies (§3.4).
//
// A RoutingOracle answers "which link does this packet take next?" at
// every node.  Three policies cover the paper's evaluation:
//  * EcmpOracle — hash the flow over the equal-cost shortest-path set
//    (in a Quartz mesh this is always the single direct lightpath);
//  * VlbOracle — Valiant load balancing over a Quartz mesh: with
//    probability `fraction`, detour a flow through one random
//    intermediate ring switch (a two-hop path) before resuming ECMP,
//    spreading hotspot rack-to-rack traffic over n-2 extra paths; and
//  * SpanningTreeOracle — classic L2 Ethernet forwarding along one
//    spanning tree, the naive baseline §3.4 argues against.
//
// Oracles are also *compilers*: compile_entry flattens the decision
// for a (node, destination-group) pair into a routing::Fib entry
// whenever the decision is provably flow-history-free under the
// currently known failure/loss state, and state_epoch() tells the FIB
// when that knowledge has changed (see routing/fib.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <ranges>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "routing/ecmp.hpp"
#include "routing/failure_view.hpp"
#include "routing/flowlet_table.hpp"
#include "topo/builders.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::routing {

class FibCompiler;

/// Observed loss above this treats a link as soft-failed: oracles with
/// a LossView deflect around it when a detour's combined loss is lower.
inline constexpr double kSoftFailLossThreshold = 0.02;

/// The `index`-th element of `items` that `keep` accepts.  Pickers
/// count the accepted elements first and hash an index below that
/// count, so they draw exactly what indexing a vector of the accepted
/// elements would draw, without building one.
template <typename Range, typename Keep>
std::ranges::range_value_t<Range> nth_kept(const Range& items, std::size_t index, Keep&& keep) {
  for (const auto& item : items) {
    if (keep(item) && index-- == 0) return item;
  }
  throw std::logic_error("pick index past the accepted elements");
}

class RoutingOracle {
 public:
  virtual ~RoutingOracle() = default;

  /// Next link for a packet currently at `node`.  `key` carries the
  /// packet's flow identity and mutable VLB state.
  virtual topo::LinkId next_link(topo::NodeId node, FlowKey& key) const = 0;

  /// Share the routing plane's failure knowledge; detected-dead links
  /// are excluded from equal-cost sets and flows fall back to two-hop
  /// detours over the surviving mesh (§3.5 self-healing).
  void attach_failure_view(const FailureView* view) {
    view_ = view;
    bump_version();
  }

  /// Share the routing plane's loss estimates (HealthMonitor): a chosen
  /// link whose observed loss exceeds the soft-fail threshold is
  /// deflected around when a detour's combined loss beats it (gray
  /// failures degrade gracefully instead of cliff-dropping).
  void attach_loss_view(const LossView* view) {
    loss_view_ = view;
    bump_version();
  }

  /// Throws std::invalid_argument unless `loss` is in [0, 1).
  void set_soft_fail_threshold(double loss);

  /// Monotone counter covering everything next_link's answers can
  /// depend on: the attached views' epochs plus a local version bumped
  /// by every oracle reconfiguration (attach, threshold, pins, probe).
  /// The compiled FIB tags each entry with the epoch it was compiled
  /// at and recompiles lazily on mismatch.  Starts above zero so a
  /// never-compiled entry (epoch 0) can never read as current.
  std::uint64_t state_epoch() const {
    return local_version_ + (view_ != nullptr ? view_->epoch() : 0) +
           (loss_view_ != nullptr ? loss_view_->epoch() : 0);
  }

  /// Compile the decision for packets at `node` heading to any host of
  /// destination `group` (see EcmpRouting::group_of).  The default
  /// emits the slow path — delegate every packet back to next_link —
  /// which is always correct; overrides emit fast actions only when
  /// the decision provably depends on nothing but (node, group,
  /// flow_hash) under the current failure/loss knowledge.
  virtual void compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const;

 protected:
  /// Any mutation that can change next_link answers must call this so
  /// compiled FIB entries go stale.
  void bump_version() { ++local_version_; }

  const FailureView* failure_view() const { return view_; }
  double soft_fail_threshold() const { return soft_fail_threshold_; }
  /// Known-dead according to the attached view (false when detached).
  bool link_dead(topo::LinkId link) const { return view_ != nullptr && view_->is_dead(link); }
  /// Observed loss of a link (0 when no loss view is attached).
  double link_loss(topo::LinkId link) const {
    return loss_view_ == nullptr ? 0.0 : loss_view_->loss_rate(link);
  }
  /// True when the link should be routed around: known dead, or
  /// observed loss above the soft-fail threshold.
  bool link_soft_failed(topo::LinkId link) const {
    return link_dead(link) || link_loss(link) > soft_fail_threshold_;
  }

 private:
  const FailureView* view_ = nullptr;
  const LossView* loss_view_ = nullptr;
  double soft_fail_threshold_ = kSoftFailLossThreshold;
  std::uint64_t local_version_ = 1;
};

class EcmpOracle : public RoutingOracle {
 public:
  explicit EcmpOracle(const EcmpRouting& routing) : routing_(&routing) {}

  /// Once a FailureView is attached, detected-dead links are excluded
  /// from the equal-cost set; when every equal-cost next hop is dead
  /// the packet deflects one hop to a neighbouring switch that still
  /// has a live shortest-path link toward the destination (the two-hop
  /// detour over the surviving mesh, §3.5).  A LossView adds the same
  /// deflection for gray links losing more than the threshold.
  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;

  void compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const override;

 private:
  double loss_of(topo::LinkId link) const;

  const EcmpRouting* routing_;
};

/// Shared machinery for oracles that know the Quartz ring structure:
/// ring membership and the direct lightpath between ring peers.  Both
/// are flat arrays indexed by node id / dense mesh-slot pair — they
/// sit on the per-packet path.
class MeshAwareOracle : public RoutingOracle {
 public:
  MeshAwareOracle(const EcmpRouting& routing,
                  const std::vector<std::vector<topo::NodeId>>& rings);

 protected:
  /// Mesh link between two members of the same ring; kInvalidLink if none.
  topo::LinkId mesh_link(topo::NodeId a, topo::NodeId b) const {
    const std::int32_t pa = mesh_slot(a);
    const std::int32_t pb = mesh_slot(b);
    if (pa < 0 || pb < 0) return topo::kInvalidLink;
    return mesh_matrix_[static_cast<std::size_t>(pa) * mesh_slots_ + static_cast<std::size_t>(pb)];
  }
  /// Ring index containing the switch, or -1.
  int ring_of(topo::NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < ring_index_.size()
               ? ring_index_[static_cast<std::size_t>(node)]
               : -1;
  }
  const std::vector<topo::NodeId>& ring(int index) const {
    return rings_[static_cast<std::size_t>(index)];
  }
  const EcmpRouting& routing() const { return *routing_; }
  /// ECMP link choice for this flow at this node, preferring links not
  /// known to be dead.
  topo::LinkId ecmp_choice(topo::NodeId node, const FlowKey& key) const;
  /// Follow an in-progress detour; returns kInvalidLink when the packet
  /// is not detouring (caller falls through to its own policy).  A
  /// detour whose own leg has since died is abandoned.
  topo::LinkId follow_via(topo::NodeId node, FlowKey& key) const;
  /// If `chosen` is a known-dead or lossy-above-threshold mesh hop,
  /// reroute over the two-hop detour (node -> w -> exit) with the
  /// lowest combined observed loss, provided both legs are alive and
  /// the detour's loss beats the direct lightpath's; otherwise return
  /// `chosen` unchanged.  Consumes the flow's detour budget.
  topo::LinkId heal_choice(topo::NodeId node, FlowKey& key, topo::LinkId chosen) const;

  /// Compile-time view of an equal-cost span.  analyze_candidates adds
  /// the set select_alive would draw from (alive candidates, or the
  /// full span when all are dead) to `out`'s candidates and reports
  /// whether every member is clean of loss and how many exit into this
  /// node's own ring (where healing/VLB can engage).
  struct CandidateSet {
    bool fallback = false;  ///< every candidate dead; the set is the full span
    bool clean = true;      ///< every member at or below the threshold
    int mesh_exits = 0;     ///< members whose far end shares node's ring
  };
  CandidateSet analyze_candidates(topo::NodeId node, std::span<const topo::LinkId> links,
                                  FibCompiler& out) const;

 private:
  std::int32_t mesh_slot(topo::NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < mesh_pos_.size()
               ? mesh_pos_[static_cast<std::size_t>(node)]
               : -1;
  }

  const EcmpRouting* routing_;
  std::vector<std::vector<topo::NodeId>> rings_;
  std::vector<int> ring_index_;          ///< node id -> ring index (-1 outside)
  std::vector<std::int32_t> mesh_pos_;   ///< node id -> dense mesh slot (-1)
  std::size_t mesh_slots_ = 0;
  std::vector<topo::LinkId> mesh_matrix_;  ///< slot x slot -> direct lightpath
};

class VlbOracle : public MeshAwareOracle {
 public:
  /// `rings` lists the switch membership of each Quartz ring (from
  /// BuiltTopology::quartz_rings); `fraction` is the paper's k — the
  /// share of traffic sent over two-hop detours.
  VlbOracle(const EcmpRouting& routing, const std::vector<std::vector<topo::NodeId>>& rings,
            double fraction);

  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;
  void compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const override;

  double fraction() const { return fraction_; }

 private:
  /// Whether ring member `w` may carry a VLB detour from `node` toward
  /// the direct exit `exit`: neither endpoint, and no leg known dead.
  bool detour_eligible(topo::NodeId node, topo::NodeId exit, topo::NodeId w) const;

  double fraction_;
};

/// SPAIN-style explicit path selection (§6): pinned host pairs always
/// take a two-hop detour through a chosen ring intermediate (the
/// prototype exposes such paths as per-VLAN virtual interfaces);
/// everything else follows plain ECMP.
///
/// The pin table is also the serve-mode reconfiguration surface: a
/// demand shift re-grooms hot host pairs over new intermediates through
/// a staged transaction (begin_regroom / stage_* / commit_regroom)
/// that applies the whole plan atomically between packets — routing
/// mid-transaction is an invariant violation (make-before-break), and
/// commit verifies every new detour's legs against the attached
/// FailureView before traffic moves onto them.  One version bump per
/// commit rides the state_epoch() protocol, so the compiled FIB
/// invalidates once and recompiles lazily mid-flight.
class PinnedDetourOracle : public MeshAwareOracle {
 public:
  PinnedDetourOracle(const EcmpRouting& routing,
                     const std::vector<std::vector<topo::NodeId>>& rings);

  /// All packets from src_host to dst_host detour via `via_switch`.
  void pin(topo::NodeId src_host, topo::NodeId dst_host, topo::NodeId via_switch);

  // --- live re-grooming (staged, make-before-break) -------------------------

  /// What one commit_regroom() did.
  struct RegroomResult {
    int applied = 0;   ///< staged pins verified and made live
    int rejected = 0;  ///< staged pins whose detour legs failed verification
    int removed = 0;   ///< staged unpins that deleted a live pin
  };

  /// Open a reconfiguration transaction.  Staged changes do not affect
  /// routing until commit; routing a packet while the transaction is
  /// open throws (no packet may see a half-applied plan).
  void begin_regroom();
  /// Stage a pin / unpin into the open transaction.
  void stage_pin(topo::NodeId src_host, topo::NodeId dst_host, topo::NodeId via_switch);
  void stage_unpin(topo::NodeId src_host, topo::NodeId dst_host);
  /// Verify and apply the staged plan atomically.  A staged pin goes
  /// live only when both detour legs (src ToR -> via -> dst ToR) exist
  /// in the mesh and neither is known dead — otherwise it is rejected
  /// and the pair keeps its previous route (break nothing until the
  /// replacement is made).  Exactly one epoch bump per commit.
  RegroomResult commit_regroom();
  /// Discard the staged plan without touching live state.
  void abort_regroom();
  bool regrooming() const { return regrooming_; }
  /// Live pin count (post-commit view).
  std::size_t pin_count() const { return pinned_.size(); }

  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;
  void compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const override;

  /// Serialize live pins plus any open regroom transaction (staged but
  /// uncommitted changes survive a checkpoint verbatim).
  void save(snapshot::Writer& w) const;
  /// Restore into a fresh oracle built over the same routing/rings.
  /// Bumps the oracle version once so attached FIBs recompile.
  void restore(snapshot::Reader& r);

 private:
  struct StagedChange {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    topo::NodeId via = topo::kInvalidNode;  ///< kInvalidNode = unpin
  };

  bool has_pin_to(topo::NodeId dst) const {
    return dst >= 0 && static_cast<std::size_t>(dst) < pin_to_dst_.size() &&
           pin_to_dst_[static_cast<std::size_t>(dst)] != 0;
  }
  void rebuild_pin_to_dst();
  /// Make-before-break check: both mesh legs of the detour exist and
  /// are not known dead.
  bool detour_viable(topo::NodeId src, topo::NodeId dst, topo::NodeId via) const;

  std::unordered_map<std::uint64_t, topo::NodeId> pinned_;
  /// Whether any source pins a detour toward this host — pinned
  /// destinations keep the whole group on the slow path.
  std::vector<char> pin_to_dst_;
  bool regrooming_ = false;
  std::vector<StagedChange> staged_;
};

/// Probe of a link direction's instantaneous output-queue delay; the
/// packet simulator implements this over its line state so adaptive
/// policies can react to congestion.
class LoadProbe {
 public:
  virtual ~LoadProbe() = default;
  virtual TimePs queue_delay(topo::LinkId link, int direction) const = 0;
};

/// §3.4's "k can be adaptive depending on the traffic characteristics":
/// a packet detours exactly when its direct lightpath's output queue
/// exceeds a threshold, and then through the least-loaded intermediate.
///
/// By default decisions are per packet, which can reorder a flow under
/// heavy detouring.  Enabling flowlet mode (a positive
/// `flowlet_timeout`) pins a flow to its last choice while that choice
/// stays healthy and the flow stays active; re-decisions happen only at
/// flowlet boundaries (idle gaps longer than the timeout) or when the
/// sticky path's queue itself blows past the threshold — the
/// CONGA-style compromise that avoids pinning flows to a saturating
/// link.  Flowlet state is keyed on (ingress switch, flow hash) and
/// lives in a fixed-capacity FlowletTable, so memory stays constant no
/// matter how many flows a run carries.
class AdaptiveVlbOracle : public MeshAwareOracle {
 public:
  AdaptiveVlbOracle(const EcmpRouting& routing,
                    const std::vector<std::vector<topo::NodeId>>& rings,
                    TimePs detour_threshold = microseconds(1));

  /// Must be called with the simulator before traffic starts; without a
  /// probe the oracle degenerates to pure ECMP.
  void attach_probe(const LoadProbe* probe) {
    probe_ = probe;
    bump_version();
  }

  /// Also needed for flowlet mode (the clock source).
  void attach_clock(const class Clock* clock) {
    clock_ = clock;
    bump_version();
  }

  /// Positive timeout enables flowlet stickiness.
  void set_flowlet_timeout(TimePs timeout) {
    flowlet_timeout_ = timeout;
    bump_version();
  }

  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;
  void compile_entry(topo::NodeId node, std::int32_t group, FibCompiler& out) const override;

  /// The bounded per-(ingress, flow) flowlet memory (for tests/bench).
  const FlowletTable& flowlet_table() const { return flowlets_; }

 private:
  TimePs queue_delay_of(topo::NodeId from, topo::LinkId link) const;

  const LoadProbe* probe_ = nullptr;
  const Clock* clock_ = nullptr;
  TimePs detour_threshold_;
  TimePs flowlet_timeout_ = 0;
  /// Mutable because next_link is logically const to callers (it does
  /// not change routing policy).
  mutable FlowletTable flowlets_;
};

/// Wall-clock source for flowlet expiry (the simulator implements it).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePs sim_now() const = 0;
};

class SpanningTreeOracle : public RoutingOracle {
 public:
  /// Builds a BFS spanning tree rooted at `root` (typically an
  /// aggregation or core switch).
  SpanningTreeOracle(const topo::Graph& graph, topo::NodeId root);

  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;

 private:
  const topo::Graph* graph_;
  std::vector<topo::NodeId> parent_;
  std::vector<topo::LinkId> parent_link_;
  std::vector<int> depth_;
};

/// Uniform [0,1) value derived from a flow hash (independent of the
/// per-switch path-selection stream); drives the VLB detour roll.
double flow_uniform(std::uint64_t flow_hash);

}  // namespace quartz::routing
