// Packet-level discrete-event network simulator (§7).
//
// The simulator models the timing effects the paper's evaluation turns
// on:
//  * cut-through switches make their forwarding decision a fixed
//    latency after the packet HEADER arrives; store-and-forward
//    switches only after the LAST BIT arrives (Table 16's 380 ns ULL
//    vs 6 µs CCS difference);
//  * every link direction is a serialising resource — packets queue in
//    the output port and drain at line rate, which is where congestion
//    and cross-traffic delay arise; and
//  * hosts relay packets only in server-centric fabrics, paying an OS
//    stack forwarding cost.
//
// A cut-through switch also cannot finish transmitting a frame before
// it has fully received it, which matters when a slow ingress feeds a
// fast egress.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/zero_array.hpp"
#include "routing/oracle.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/packet.hpp"
#include "telemetry/sink.hpp"
#include "topo/builders.hpp"

namespace quartz::routing {
class Fib;
}  // namespace quartz::routing

namespace quartz::telemetry {
class BinaryStreamSink;
}  // namespace quartz::telemetry

namespace quartz::sim {

struct SimConfig {
  /// Fixed host-side overheads added on send and on final delivery
  /// (OS stack + NIC, Table 2).  Zero by default: the paper's
  /// simulations isolate fabric latency.
  TimePs host_send_overhead = 0;
  TimePs host_recv_overhead = 0;
  /// OS-stack cost of relaying a packet through a server (BCube).
  TimePs server_forward_latency = microseconds(15);
  /// Output queues drop packets that would wait longer than this
  /// (drop-tail expressed in time; generous by default so saturation
  /// shows up as unbounded latency growth, as in Fig. 20).
  TimePs max_queue_delay = milliseconds(10);
  /// How long after a link fails (or is repaired) the routing plane
  /// learns about it, modeling BFD / loss-of-signal detection plus
  /// convergence.  Zero = instant detection.  Until detection, oracles
  /// keep forwarding onto the dead link and those packets are dropped
  /// (the §3.5 transient).
  TimePs failure_detection_delay = 0;
  /// Seed of the per-network stream that samples gray-failure packet
  /// corruption (see set_link_loss); runs are deterministic per seed.
  std::uint64_t corruption_seed = 0x475241594C4Bull;  // "GRAYLK"
};

/// Why a packet was dropped: output-queue overflow (congestion) versus
/// transmitting onto — or being in flight on — a failed link.
/// (Defined in telemetry so observers need not depend on the simulator.)
using DropReason = telemetry::DropReason;

/// Structured observer of the simulator's event stream; see
/// telemetry/sink.hpp for the event vocabulary.  Sinks are purely
/// passive: attaching any number of them never perturbs the simulation.
using TelemetrySink = telemetry::TelemetrySink;

/// Called on final delivery with the packet and its end-to-end latency.
using DeliveryHandler = std::function<void(const Packet&, TimePs latency)>;

/// How one Network participates in a sharded run (sim/sharded.hpp).
/// The bound network restricts itself to the nodes it owns, stamps
/// every packet event with shard_stamp(packet.id), allocates packet
/// ids per source host (so ids are shard-count invariant), samples
/// gray-failure corruption by hashing instead of drawing from the
/// sequential RNG, posts cross-shard transits into the destination
/// shard's mailbox, and emits link-scoped telemetry only for links
/// whose `a` endpoint it owns (every shard replicates the control
/// plane, so without the filter each link event would appear once per
/// shard).  shard_count == 1 exercises the identical code path — that
/// run IS the determinism reference for every other shard count.
struct ShardBinding {
  int shard = 0;
  int shard_count = 1;
  /// Node -> owning shard (PartitionPlan::owner); must outlive the run.
  const std::vector<std::int32_t>* owner = nullptr;
  /// Outboxes indexed by destination shard (own slot unused / null);
  /// array of `shard_count` pointers, must outlive the run.
  Mailbox* const* outboxes = nullptr;
};

/// A Network (and the EventQueue engine inside it, and every telemetry
/// sink attached to it) is THREAD-CONFINED: it must be driven by the
/// thread that constructed it.  SweepRunner gives each worker its own
/// engine; the sharded engine builds each shard's Network inside its
/// worker thread so the same assert covers per-shard ownership.  Sinks
/// never need locks; this contract is asserted at the driving entry
/// points (send / run_until / add_sink).  See docs/performance.md.
class Network : public routing::LoadProbe, public routing::Clock, private EventHandler {
 public:
  Network(const topo::BuiltTopology& topo, const routing::RoutingOracle& oracle,
          SimConfig config = {});

  TimePs now() const { return events_.now(); }

  /// Register a traffic class; the handler (may be empty) fires on each
  /// delivery of a packet sent with the returned task id.
  int new_task(DeliveryHandler handler);

  /// Attach a telemetry sink observing the full event stream (send,
  /// transmit, arrival, forward, delivery, drop, link state) — the one
  /// way to observe a run.  The sink must outlive the simulation; any
  /// number may be attached and each event fans out to all of them in
  /// attachment order, after the stream sink.
  void add_sink(TelemetrySink* sink);

  /// Dedicated fast path for binary event-stream capture: unlike
  /// add_sink's virtual fan-out, the BinaryStreamSink is a known
  /// `final` type the event sites call directly, so its record
  /// encoders inline into the simulator (a few stores per event; see
  /// telemetry/stream_sink.hpp).  The sink must outlive the
  /// simulation; nullptr detaches.  Like every sink it is passive and
  /// thread-confined with the network.
  void set_stream_sink(telemetry::BinaryStreamSink* sink);

  /// Inject a packet now.  `flow_id` identifies the flow for ECMP/VLB
  /// hashing (packets of one flow share a path); `tag` is carried
  /// opaquely on the packet.
  void send(topo::NodeId src, topo::NodeId dst, Bits size, int task, std::uint64_t flow_id,
            std::uint64_t tag = 0);

  void run_until(TimePs end) {
    assert_owning_thread();
    events_.run_until(end);
  }

  /// Run every event with time STRICTLY below `end` and land now() on
  /// `end` — the conservative-window primitive (see sim/sharded.hpp).
  void run_before(TimePs end) {
    assert_owning_thread();
    events_.run_before(end);
  }

  // --- sharding (sim/sharded.hpp drives these) -------------------------------

  /// Enter shard mode.  Call once, before any traffic, from the owning
  /// thread.  See ShardBinding for the behavioral contract.
  void bind_shard(const ShardBinding& binding);
  bool shard_bound() const { return shard_bound_; }
  int shard() const { return shard_; }
  bool owns_node(topo::NodeId node) const {
    return !shard_bound_ || (*shard_owner_)[static_cast<std::size_t>(node)] == shard_;
  }
  /// Inject one cross-shard transit drained from an inbox.  Only valid
  /// between windows: entry.time must be >= now().
  void deliver_mail(const Mailbox::Entry& entry) {
    assert_owning_thread();
    QUARTZ_CHECK(shard_bound_, "deliver_mail requires shard mode");
    events_.schedule_packet(entry.time, EventType::kTransmitComplete, entry.event, entry.stamp);
  }
  /// Cross-shard transits this shard has posted (diagnostic).
  std::uint64_t mail_posted() const { return mail_posted_; }

  /// Schedule a control-plane timer: the one way work other than
  /// packets enters the engine (see TimerEvent).
  void schedule_timer(TimePs when, const TimerEvent& event) {
    events_.schedule_timer(when, event);
  }

  /// Serialize the full simulation state: the engine (with every
  /// pending event) plus link/line/loss state, RNG, failure view and
  /// packet counters.  Structural members (topology, oracle, FIB,
  /// sinks, task handlers) are NOT serialized — the restoring
  /// harness reconstructs them identically and then calls restore().
  /// FIB/oracle epochs need no serialization either: a fresh FIB starts
  /// at epoch 0, never matches a bumped view epoch, and recompiles
  /// lazily with bit-identical decisions.
  void save(snapshot::Writer& w, const HandlerMap& handlers) const;

  /// Restore into a freshly constructed Network built from the same
  /// topology/oracle/config.  Tasks must be re-registered (same count,
  /// same order) before calling this.
  void restore(snapshot::Reader& r, const HandlerMap& handlers);

  /// Events the engine has dispatched so far (all types).
  std::uint64_t events_processed() const { return events_.events_run(); }
  /// The engine itself, for pool/heap introspection in tests and bench.
  const EventQueue& engine() const { return events_; }

  // --- live fault injection (§3.5 made dynamic) ------------------------------
  //
  // fail_link/repair_link flip the *physical* state immediately (script
  // a timeline with FaultScheduler).
  // Packets in flight on a failing link are dropped; transmit attempts
  // onto a dead link are dropped and counted as kLinkDown.  The routing
  // plane's FailureView is updated `failure_detection_delay` later.

  void fail_link(topo::LinkId link);
  void repair_link(topo::LinkId link);
  bool link_up(topo::LinkId link) const;

  // --- gray failures ---------------------------------------------------------
  //
  // A gray-failed link stays up but corrupts each packet independently
  // with probability `p` (checked when the head arrives at the far
  // end); corrupted packets are dropped and counted as kCorrupted.
  // The fixed-delay FailureView never learns about gray failures — only
  // a probe-based HealthMonitor can see them.

  /// Set a link's drop probability (0 restores it).  Fans out
  /// on_link_degraded to the attached sinks.
  void set_link_loss(topo::LinkId link, double p);
  double link_loss_rate(topo::LinkId link) const;
  /// Ground-truth health: dead when physically down, lossy when the
  /// drop probability is non-zero, healthy otherwise.  This is what a
  /// perfect monitor would converge to.
  routing::LinkHealth link_health(topo::LinkId link) const;

  // --- health-monitor event fan-out ------------------------------------------
  //
  // The probe plane and HealthMonitor live outside the simulator; these
  // relay their events to the attached telemetry sinks so one sink list
  // observes the whole detection story.

  void emit_probe(topo::LinkId link, bool delivered, TimePs when);
  void emit_health_transition(topo::LinkId link, routing::LinkHealth from,
                              routing::LinkHealth to, TimePs when);
  void emit_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when);
  /// The routing plane's delayed knowledge of liveness; attach this to
  /// failure-aware oracles before traffic starts.
  const routing::FailureView& failure_view() const { return failure_view_; }

  /// Route through a compiled FIB fronting the construction-time oracle
  /// (nullptr reverts to direct oracle calls).  The FIB must wrap the
  /// same oracle and must outlive the simulation; decisions are
  /// bit-identical either way — only the per-packet cost changes.
  void set_fib(routing::Fib* fib) { fib_ = fib; }
  const routing::Fib* fib() const { return fib_; }

  /// Attach per-directed-line queueing bias (picoseconds per line,
  /// indexed link*2 + direction; nullptr detaches).  The array is the
  /// hybrid fluid/packet coupling point: sim::FluidBackground owns it
  /// and rewrites it each epoch, and the simulator adds the bias to a
  /// packet's output-port readiness in transmit() and to queue_delay(),
  /// so foreground packets experience background queueing without the
  /// background's packets existing.  Must be sized 2*link_count and
  /// outlive its attachment.  Not serialized: the owner re-attaches and
  /// restores it (see FluidBackground::save/restore).
  void set_queue_bias(const ZeroArray<TimePs>* bias) { queue_bias_ = bias; }
  const ZeroArray<TimePs>* queue_bias() const { return queue_bias_; }
  std::uint64_t link_failures() const { return link_failures_; }
  std::uint64_t link_repairs() const { return link_repairs_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  /// Drops with a specific cause (they sum to packets_dropped()).
  std::uint64_t packets_dropped(DropReason reason) const {
    return dropped_by_reason_[static_cast<std::size_t>(reason)];
  }
  /// Drops attributed to one task id.
  std::uint64_t task_drops(int task) const;

  /// Bits put on a link direction so far (direction 0 = a->b).
  Bits bits_sent(topo::LinkId link, int direction) const;
  /// Fraction of [0, now] the link direction spent transmitting.
  double utilization(topo::LinkId link, int direction) const;
  /// Instantaneous output-queue delay of a link direction (LoadProbe;
  /// lets AdaptiveVlbOracle steer around congested lightpaths).
  TimePs queue_delay(topo::LinkId link, int direction) const override;
  /// routing::Clock: the simulation time (for flowlet expiry).
  TimePs sim_now() const override { return now(); }

  const topo::Graph& graph() const { return topo_->graph; }
  const topo::BuiltTopology& topology() const { return *topo_; }

 private:
  // EventHandler: the engine hands popped typed events back here.
  void on_packet_event(EventType type, PacketEvent& event) override;
  void on_fault_event(const FaultEvent& event) override;

  /// Packet fully/partially arrived at `node`: deliver, or forward.
  void arrive(Packet packet, topo::NodeId node, TimePs first_bit, TimePs last_bit);

  /// Make the forwarding decision at `node` and put the packet on its
  /// next line.  `decision_ready` is when the output port may start.
  void transmit(Packet packet, topo::NodeId node, TimePs decision_ready, TimePs last_bit_in);

  /// Account a drop (global, per-reason, per-task) and emit it.
  void drop(const Packet& packet, DropReason reason);

  /// The one observation fan-out: `f(sink)` on the stream sink (a
  /// `final` type, so the call devirtualizes), then on each attached
  /// sink in order.  emit_link adds the link-event shard dedup.
  template <class F>
  void emit(F&& f);
  template <class F>
  void emit_link(topo::LinkId link, F&& f);

  /// Tie-break stamp for a packet event: shard_stamp in shard mode
  /// (schedule-order independent), 0 otherwise (pure schedule order).
  std::uint64_t stamp_of(const Packet& packet) const {
    return shard_bound_ ? shard_stamp(packet.id) : 0;
  }

  /// Link-scoped telemetry dedup: in shard mode only the shard owning
  /// the link's `a` endpoint reports the (replicated) link events.
  bool emits_link_events(topo::LinkId link) const {
    return !shard_bound_ || owns_node(topo_->graph.link(link).a);
  }

  /// Thread-confinement contract: the constructing thread drives the
  /// whole simulation (engine, sinks).
  void assert_owning_thread() const {
    QUARTZ_CHECK(std::this_thread::get_id() == owner_,
                 "Network is thread-confined: drive it from the thread that built it");
  }

  const topo::BuiltTopology* topo_;
  const routing::RoutingOracle* oracle_;
  routing::Fib* fib_ = nullptr;
  const ZeroArray<TimePs>* queue_bias_ = nullptr;
  SimConfig config_;
  EventQueue events_;
  // Per-line and per-link state starts all zero and commits a page only
  // when a line in it is first written (common/zero_array.hpp), so a
  // warehouse-scale fabric pays for the lines that carry traffic.
  /// busy-until per (link, direction); direction 0 is a->b.
  ZeroArray<TimePs> line_busy_;
  /// accumulated transmitting time and bits per (link, direction).
  ZeroArray<TimePs> line_active_;
  ZeroArray<Bits> line_bits_;
  /// Physical per-link failure (0 = up) and a state sequence number
  /// bumped on every fail/repair: in-flight packets carry the sequence
  /// observed at transmission and are dropped when it changed under
  /// them; it also guards the delayed FailureView updates against
  /// stale events.
  ZeroArray<char> link_down_;
  ZeroArray<std::uint32_t> link_seq_;
  /// Per-link gray-failure drop probability (0 = clean).
  ZeroArray<double> link_loss_;
  /// Corruption sampling stream (seeded; deterministic per run).
  Rng loss_rng_;
  routing::FailureView failure_view_;
  std::vector<DeliveryHandler> handlers_;
  std::vector<TelemetrySink*> sinks_;
  telemetry::BinaryStreamSink* stream_ = nullptr;
  std::vector<std::uint64_t> task_drops_;
  std::uint64_t next_packet_id_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t dropped_by_reason_[telemetry::kDropReasonCount] = {};
  std::uint64_t link_failures_ = 0;
  std::uint64_t link_repairs_ = 0;
  // Shard mode (bind_shard); inert until bound.
  bool shard_bound_ = false;
  int shard_ = 0;
  int shard_count_ = 1;
  const std::vector<std::int32_t>* shard_owner_ = nullptr;
  Mailbox* const* outboxes_ = nullptr;
  /// Per-source-host packet id sequence (shard mode): id =
  /// (src << 32) | seq, a pure function of the traffic script, so ids
  /// (and their stamps) match at every shard count.
  std::vector<std::uint32_t> host_seq_;
  std::uint64_t mail_posted_ = 0;
  std::thread::id owner_ = std::this_thread::get_id();
};

}  // namespace quartz::sim
