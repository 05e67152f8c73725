// Hybrid fluid/packet evaluation: background traffic as a fluid model.
//
// At warehouse scale, simulating every background packet is what caps
// DES throughput — a 110k-switch fabric carrying a realistic load would
// generate billions of packet events per simulated second.  The hybrid
// mode keeps the packet-level machinery for the *foreground* flows
// under study and models everything else as a set of fluid demands
// evolved with the flow::MaxMinSolver on a coarse epoch clock:
//
//   every epoch: re-solve max-min fair rates for the background
//   demands over their extracted routes, then convert each directed
//   line's background utilization rho into a queueing-delay offset
//   W = rho / (2 (1 - rho)) * S        (M/D/1 mean wait, S = the
//   serialization time of a mean-sized packet),
//
// and the packet simulator adds that bias to the output-port readiness
// of every foreground packet crossing the line (Network::set_queue_bias).
// Background packets never exist; their queueing pressure does.
//
// Determinism contract: the epoch clock is a TimerEvent, the solve
// depends only on (demands, routes, capacities), and digest() folds
// every epoch's biases — so the digest is stable across runs and across
// `--jobs`, and pending epochs survive snapshot/restore like any other
// timer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "flow/maxmin.hpp"
#include "sim/network.hpp"

namespace quartz::sim {

/// One background demand: a host-to-host offered load.
struct FluidDemand {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  double rate_bps = 0.0;
};

struct FluidParams {
  TimePs epoch = microseconds(200);  ///< re-solve cadence
  TimePs start = 0;                  ///< first solve
  TimePs stop = 0;                   ///< no epochs after this (0 = forever)
  Bits mean_packet = 1500 * 8;       ///< background packet size for S
  /// rho is clamped below 1 so W stays finite; saturation shows up as
  /// the (large) capped bias rather than a division blow-up.
  double max_utilization = 0.97;
  TimePs max_bias = microseconds(50);
};

/// Evolves background demands as fluid flows and feeds the resulting
/// per-line queueing bias into a Network.  Construction attaches the
/// bias array (Network::set_queue_bias); destruction detaches it.
/// Thread-confined with its network.
class FluidBackground final : public TimerHandler {
 public:
  /// Routes are extracted by walking `oracle` hop by hop (any oracle
  /// works; HierOracle makes the walk O(hops) on composed fabrics) and
  /// re-extracted whenever the oracle's state epoch moves, so fiber
  /// cuts re-groom the background too.
  FluidBackground(Network& net, const routing::RoutingOracle& oracle,
                  std::vector<FluidDemand> demands, FluidParams params = {});
  ~FluidBackground() override;

  FluidBackground(const FluidBackground&) = delete;
  FluidBackground& operator=(const FluidBackground&) = delete;

  /// Schedule the first epoch at params.start.  Call once, before the
  /// run; subsequent epochs chain themselves.
  void arm();

  void on_timer(const TimerEvent& event) override;

  /// Epochs solved so far.
  std::uint64_t epochs() const { return epochs_; }
  /// FNV-1a over every epoch's (line, bias) pairs — the determinism
  /// witness asserted by tests at any --jobs.
  std::uint64_t digest() const { return digest_; }
  /// Background aggregate throughput (bits/s) from the latest solve.
  double aggregate_bps() const { return aggregate_; }
  /// The live bias array (picoseconds per directed line).
  const ZeroArray<TimePs>& bias() const { return bias_; }

  /// Serialize the fluid state (epoch count, digest, non-zero biases).
  /// The pending epoch timer rides the engine snapshot; the restoring
  /// harness must register this instance at the same HandlerMap::timers
  /// slot it occupied at save.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  void extract_routes();
  void solve_epoch();

  Network* net_;
  const routing::RoutingOracle* oracle_;
  std::vector<FluidDemand> demands_;
  FluidParams params_;

  flow::MaxMinSolver solver_;
  std::vector<flow::Flow> flows_;
  std::uint64_t routes_epoch_ = 0;
  bool routes_valid_ = false;

  /// Commits only the pages of lines the background has ever biased.
  ZeroArray<TimePs> bias_;
  std::vector<std::size_t> biased_lines_;  ///< lines with non-zero bias
  std::uint64_t epochs_ = 0;
  std::uint64_t digest_ = kFnvOffsetBasis;
  double aggregate_ = 0.0;
};

// ---------------------------------------------------------------------------
// Constant-bit-rate packet sources

/// One paced packet flow: `rate_bps` of `packet`-sized frames.
struct CbrFlow {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  double rate_bps = 0.0;
  Bits packet = 1500 * 8;
};

/// Deterministic CBR traffic driven entirely by typed timer events —
/// the foreground workload of hybrid runs, and the packet-level
/// reference for the fluid background in fidelity checks.  The source
/// itself is stateless between events: each pending TimerEvent carries
/// (tag = flow index, a = sequence number), so arming order and --jobs
/// never change the packet stream.  Flow phases are staggered evenly
/// across each flow's send interval to avoid lockstep artifacts.
class CbrSource final : public TimerHandler {
 public:
  /// Sends on `task`; flow i's packets use flow id `flow_id_base + i`.
  CbrSource(Network& net, std::vector<CbrFlow> flows, int task, TimePs start, TimePs stop,
            std::uint64_t flow_id_base = 1);

  /// Schedule every flow's first packet.  Call once, before the run.
  void arm();

  void on_timer(const TimerEvent& event) override;

  std::uint64_t packets_sent() const { return sent_; }

 private:
  Network* net_;
  std::vector<CbrFlow> flows_;
  std::vector<TimePs> interval_;
  int task_;
  TimePs start_;
  TimePs stop_;
  std::uint64_t flow_id_base_;
  std::uint64_t sent_ = 0;
};

}  // namespace quartz::sim
