// The routing plane's (delayed) knowledge of link liveness.
//
// A FailureView is the piece of shared state between the packet
// simulator and the forwarding oracles that makes self-healing routing
// possible: the simulator owns the *physical* up/down state of every
// link and, a configurable detection delay after each transition
// (modeling BFD / loss-of-signal detection and protocol convergence),
// reflects it here.  Oracles consult the view — never the physical
// state — so during the detection window packets are still forwarded
// onto a dead lightpath and lost, exactly the transient §3.5's static
// analysis cannot show.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "common/zero_array.hpp"
#include "topo/graph.hpp"

namespace quartz::routing {

/// Health of a link as either plane sees it: fully up, up but silently
/// eating packets (a gray failure: degraded amplifier/transceiver whose
/// eroded optical margin shows up as BER loss), or down.
enum class LinkHealth { kHealthy = 0, kLossy = 1, kDead = 2 };

inline const char* link_health_name(LinkHealth health) {
  switch (health) {
    case LinkHealth::kHealthy: return "healthy";
    case LinkHealth::kLossy: return "lossy";
    case LinkHealth::kDead: return "dead";
  }
  return "unknown";
}

/// The routing plane's estimate of per-link packet loss.  Oracles that
/// attach a LossView treat heavily lossy lightpaths as soft-failed:
/// they deflect over a two-hop detour whenever the detour's combined
/// observed loss beats the direct lightpath's.  HealthMonitor is the
/// canonical implementation (probe-derived EWMA).
class LossView {
 public:
  virtual ~LossView() = default;
  /// Observed loss probability of a link in [0, 1]; 0 = clean.
  virtual double loss_rate(topo::LinkId link) const = 0;

  /// Monotone counter bumped whenever any loss_rate() answer may have
  /// changed.  The compiled FIB compares it (together with the
  /// FailureView epoch) against the epoch its entries were compiled at,
  /// so stale routes fall back to the oracle and recompile lazily.
  /// Deliberately non-virtual: reading it is on the per-packet path.
  std::uint64_t epoch() const { return epoch_; }

 protected:
  /// Implementations call this on every estimate change (HealthMonitor:
  /// any probe that moves an EWMA).
  void bump_epoch() { ++epoch_; }

 private:
  std::uint64_t epoch_ = 0;
};

class FailureView {
 public:
  FailureView() = default;
  explicit FailureView(std::size_t links) { resize(links); }

  /// (Re)size to the topology's link count; all links start alive.
  void resize(std::size_t links) {
    dead_ = ZeroArray<char>(links);
    ++epoch_;
  }

  void set_dead(topo::LinkId link, bool dead) {
    QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < dead_.size(), "unknown link");
    char& slot = dead_[static_cast<std::size_t>(link)];
    const char next = dead ? 1 : 0;
    if (slot == next) return;  // no knowledge change, no invalidation
    slot = next;
    ++epoch_;
  }

  /// True once a failure has been detected (and not yet repaired, as
  /// far as the routing plane knows).  Unknown links read as alive so
  /// an unattached or stale view degrades to failure-oblivious routing.
  bool is_dead(topo::LinkId link) const {
    return link >= 0 && static_cast<std::size_t>(link) < dead_.size() &&
           dead_[static_cast<std::size_t>(link)] != 0;
  }

  std::size_t dead_count() const {
    std::size_t n = 0;
    for (const char d : dead_) n += static_cast<std::size_t>(d);
    return n;
  }

  /// Monotone counter bumped on every actual liveness-knowledge change
  /// (a set_dead that flips a bit, or a resize).  See LossView::epoch.
  std::uint64_t epoch() const { return epoch_; }

 private:
  ZeroArray<char> dead_;  ///< commits a page only when a link in it dies
  std::uint64_t epoch_ = 0;
};

}  // namespace quartz::routing
