// Compiled forwarding plane.
//
// The oracles in routing/oracle.hpp answer per-packet questions by
// re-deriving state every time: virtual dispatch, a counting pass over
// the equal-cost span to skip dead links, ring/mesh lookups, loss
// comparisons.  Over a Quartz mesh the answers are almost always the
// same for every packet at a given (switch, destination-group) pair —
// the WDM ring structure makes routes compilable — so the Fib caches
// them as dense entries: the steady-state per-packet cost is two array
// loads plus one hash mix, with zero allocations and no virtual call.
//
// Correctness under churn is epoch-based.  Every oracle exposes
// state_epoch(), a monotone counter folding in the attached
// FailureView / LossView epochs plus a local reconfiguration version.
// Each compiled entry is tagged with the epoch it was compiled at;
// next_link compares and, on mismatch, falls back to the (slow, always
// correct) oracle recompute and recompiles the entry lazily.  Entries
// the oracle cannot certify as flow-history-free (in-flight detours,
// lossy candidates needing per-flow healing, queue-adaptive choices)
// stay on the slow path, so FIB-on and FIB-off runs make bit-identical
// decisions — only the speed differs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/oracle.hpp"

namespace quartz::routing {

/// Scratch an oracle's compile_entry writes its verdict into.  Exactly
/// one emit_* call wins (the last one); emit_slow is the default.  The
/// candidate and detour buffers start empty for every compile and keep
/// their capacity, so recompiles stop allocating once they have seen
/// the widest span.
class FibCompiler {
 public:
  enum class Action : std::uint8_t {
    kSlow = 0,   ///< delegate to RoutingOracle::next_link
    kDirect,     ///< single precomputed link
    kEcmpHash,   ///< hash_select over a compiled candidate span
    kHostPort,   ///< final hop at the shared ToR: the destination's own port
    kVlbRoll,    ///< mesh-ingress VLB coin flip over a compiled detour set
  };

  struct Detour {
    topo::NodeId via = topo::kInvalidNode;
    topo::LinkId leg1 = topo::kInvalidLink;
  };

  void add_candidate(topo::LinkId link) { candidates_.push_back(link); }
  std::span<const topo::LinkId> candidates() const { return candidates_; }
  void add_detour(Detour detour) { detours_.push_back(detour); }

  void emit_slow() { action_ = Action::kSlow; }
  void emit_direct(topo::LinkId link) {
    action_ = Action::kDirect;
    link_ = link;
  }
  /// Hash pick over the added candidates: one compiles to kDirect, none
  /// to kSlow.
  void emit_ecmp() {
    if (candidates_.empty()) return emit_slow();
    if (candidates_.size() == 1) return emit_direct(candidates_[0]);
    action_ = Action::kEcmpHash;
  }
  void emit_host_port() { action_ = Action::kHostPort; }
  /// `direct` is the (unique, alive, clean) mesh exit; a flow rolls
  /// under `fraction` into one of the added detours (hash-picked)
  /// before settling on `direct`.
  void emit_vlb_roll(topo::LinkId direct, double fraction) {
    action_ = Action::kVlbRoll;
    link_ = direct;
    fraction_ = fraction;
  }
  /// ECMP-style via handling: a via naming this node is cleared and the
  /// fast action still applies (EcmpOracle ignores foreign vias).
  /// Without this, any packet carrying a via takes the slow path so
  /// the oracle can run its detour-following logic.
  void set_clear_own_via() { clear_own_via_ = true; }

 private:
  friend class Fib;

  void reset() {
    action_ = Action::kSlow;
    clear_own_via_ = false;
    link_ = topo::kInvalidLink;
    fraction_ = 0.0;
    candidates_.clear();
    detours_.clear();
  }

  Action action_ = Action::kSlow;
  bool clear_own_via_ = false;
  topo::LinkId link_ = topo::kInvalidLink;
  double fraction_ = 0.0;
  std::vector<topo::LinkId> candidates_;
  std::vector<Detour> detours_;
};

/// The compiled FIB: one entry per (node, destination-group), lazily
/// compiled and epoch-invalidated.  Drop-in for oracle.next_link on
/// the owning (single) simulation thread; non-const because lookups
/// compile entries and count themselves.
class Fib {
 public:
  struct Stats {
    std::uint64_t hits = 0;           ///< fast-path lookups served from a live entry
    std::uint64_t misses = 0;         ///< lookups that (re)compiled their entry first
    std::uint64_t slow_path = 0;      ///< decisions delegated to the oracle
    std::uint64_t invalidations = 0;  ///< epoch changes that flushed the table
  };

  Fib(const EcmpRouting& routing, const RoutingOracle& oracle);

  topo::LinkId next_link(topo::NodeId node, FlowKey& key);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }
  const RoutingOracle& oracle() const { return *oracle_; }

 private:
  struct Entry {
    std::uint64_t epoch = 0;  ///< state epoch compiled at; 0 = never compiled
    FibCompiler::Action action = FibCompiler::Action::kSlow;
    bool clear_own_via = false;
    std::uint16_t count = 0;   ///< candidate or detour span length
    std::uint32_t offset = 0;  ///< into the matching arena
    topo::LinkId link = topo::kInvalidLink;
    double fraction = 0.0;
  };

  topo::LinkId slow(topo::NodeId node, FlowKey& key);
  void compile(topo::NodeId node, std::int32_t group, Entry& entry);

  const EcmpRouting* routing_;
  const RoutingOracle* oracle_;
  std::size_t group_count_;
  std::vector<Entry> entries_;  ///< node * group_count + group
  std::vector<topo::LinkId> candidate_arena_;
  std::vector<FibCompiler::Detour> detour_arena_;
  std::uint64_t table_epoch_ = 0;
  Stats stats_;
  FibCompiler scratch_;
};

}  // namespace quartz::routing
