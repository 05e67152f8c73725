#include "sim/network.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "routing/fib.hpp"
#include "snapshot/io.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::sim {
namespace {

/// Counter-free gray-failure sampling for shard mode: a uniform draw
/// keyed by (seed, packet id, hop count, link), so the decision for a
/// given head-arrival is identical no matter which shard executes it
/// or how many corruption checks ran before it.  Serial (unbound) runs
/// keep the historical sequential RNG stream.
double hashed_corruption_u01(std::uint64_t seed, std::uint64_t id, std::uint64_t hops_link) {
  const std::uint64_t x = splitmix64_mix(splitmix64_mix(splitmix64(seed) + id) + hops_link);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Overwrite `slot` only when `value` differs from it byte for byte, so
/// restoring zeros into a fresh network's ZeroArrays commits no page.
template <class T>
void store_if_changed(T& slot, const T& value) {
  if (std::memcmp(&slot, &value, sizeof(T)) != 0) slot = value;
}

}  // namespace

Network::Network(const topo::BuiltTopology& topo, const routing::RoutingOracle& oracle,
                 SimConfig config)
    : topo_(&topo),
      oracle_(&oracle),
      config_(config),
      line_busy_(topo.graph.link_count() * 2),
      line_active_(topo.graph.link_count() * 2),
      line_bits_(topo.graph.link_count() * 2),
      link_down_(topo.graph.link_count()),
      link_seq_(topo.graph.link_count()),
      link_loss_(topo.graph.link_count()),
      loss_rng_(config.corruption_seed),
      failure_view_(topo.graph.link_count()) {
  events_.set_handler(this);
}

void Network::add_sink(TelemetrySink* sink) {
  QUARTZ_REQUIRE(sink != nullptr, "null telemetry sink");
  // Sinks are thread-confined with the network that feeds them: they
  // only ever see events from the owning thread, so they need no locks.
  assert_owning_thread();
  sinks_.push_back(sink);
}

void Network::set_stream_sink(telemetry::BinaryStreamSink* sink) {
  assert_owning_thread();
  stream_ = sink;
}

template <class F>
void Network::emit(F&& f) {
  if (stream_ != nullptr) f(*stream_);
  for (TelemetrySink* sink : sinks_) f(*sink);
}

template <class F>
void Network::emit_link(topo::LinkId link, F&& f) {
  if (emits_link_events(link)) emit(std::forward<F>(f));
}

void Network::bind_shard(const ShardBinding& binding) {
  assert_owning_thread();
  QUARTZ_REQUIRE(!shard_bound_, "already bound to a shard");
  QUARTZ_REQUIRE(packets_sent_ == 0 && events_.events_run() == 0,
                 "bind_shard must precede all traffic");
  QUARTZ_REQUIRE(binding.shard >= 0 && binding.shard < binding.shard_count, "shard out of range");
  QUARTZ_REQUIRE(binding.owner != nullptr && binding.owner->size() == topo_->graph.node_count(),
                 "shard owner map does not match the topology");
  QUARTZ_REQUIRE(binding.shard_count == 1 || binding.outboxes != nullptr,
                 "multi-shard binding needs outboxes");
  shard_bound_ = true;
  shard_ = binding.shard;
  shard_count_ = binding.shard_count;
  shard_owner_ = binding.owner;
  outboxes_ = binding.outboxes;
  host_seq_.assign(topo_->graph.node_count(), 0);
}

void Network::fail_link(topo::LinkId link) {
  QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_down_.size(),
                 "unknown link");
  char& down = link_down_[static_cast<std::size_t>(link)];
  if (down) return;
  down = 1;
  ++link_failures_;
  emit_link(link, [&](auto& sink) { sink.on_link_state(link, /*up=*/false, now()); });
  const std::uint32_t seq = ++link_seq_[static_cast<std::size_t>(link)];
  // The routing plane learns one detection delay later — unless the
  // link's state changed again in the meantime.
  events_.schedule_fault(now() + config_.failure_detection_delay,
                         FaultEvent{link, seq, /*dead=*/true});
}

void Network::repair_link(topo::LinkId link) {
  QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_down_.size(),
                 "unknown link");
  char& down = link_down_[static_cast<std::size_t>(link)];
  if (!down) return;
  down = 0;
  ++link_repairs_;
  emit_link(link, [&](auto& sink) { sink.on_link_state(link, /*up=*/true, now()); });
  const std::uint32_t seq = ++link_seq_[static_cast<std::size_t>(link)];
  events_.schedule_fault(now() + config_.failure_detection_delay,
                         FaultEvent{link, seq, /*dead=*/false});
}

void Network::on_fault_event(const FaultEvent& event) {
  if (link_seq_[static_cast<std::size_t>(event.link)] != event.link_seq) return;
  failure_view_.set_dead(event.link, event.dead);
  emit_link(event.link,
            [&](auto& sink) { sink.on_link_detected(event.link, event.dead, now()); });
}

bool Network::link_up(topo::LinkId link) const {
  QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_down_.size(),
                 "unknown link");
  return link_down_[static_cast<std::size_t>(link)] == 0;
}

void Network::set_link_loss(topo::LinkId link, double p) {
  QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_loss_.size(), "unknown link");
  QUARTZ_REQUIRE(p >= 0.0 && p <= 1.0, "drop probability must be in [0,1]");
  link_loss_[static_cast<std::size_t>(link)] = p;
  emit_link(link, [&](auto& sink) { sink.on_link_degraded(link, p, now()); });
}

double Network::link_loss_rate(topo::LinkId link) const {
  QUARTZ_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_loss_.size(), "unknown link");
  return link_loss_[static_cast<std::size_t>(link)];
}

routing::LinkHealth Network::link_health(topo::LinkId link) const {
  if (!link_up(link)) return routing::LinkHealth::kDead;
  return link_loss_[static_cast<std::size_t>(link)] > 0.0 ? routing::LinkHealth::kLossy
                                                          : routing::LinkHealth::kHealthy;
}

void Network::emit_probe(topo::LinkId link, bool delivered, TimePs when) {
  emit_link(link, [&](auto& sink) { sink.on_probe(link, delivered, when); });
}

void Network::emit_health_transition(topo::LinkId link, routing::LinkHealth from,
                                     routing::LinkHealth to, TimePs when) {
  emit_link(link, [&](auto& sink) { sink.on_health_transition(link, from, to, when); });
}

void Network::emit_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) {
  emit_link(link, [&](auto& sink) { sink.on_flap_damped(link, suppressed_until, when); });
}

void Network::drop(const Packet& packet, DropReason reason) {
  ++packets_dropped_;
  ++dropped_by_reason_[static_cast<std::size_t>(reason)];
  ++task_drops_[static_cast<std::size_t>(packet.task)];
  emit([&](auto& sink) { sink.on_drop(packet, reason, now()); });
}

int Network::new_task(DeliveryHandler handler) {
  handlers_.push_back(std::move(handler));
  task_drops_.push_back(0);
  return static_cast<int>(handlers_.size() - 1);
}

std::uint64_t Network::task_drops(int task) const {
  QUARTZ_REQUIRE(task >= 0 && task < static_cast<int>(task_drops_.size()), "unknown task");
  return task_drops_[static_cast<std::size_t>(task)];
}

Bits Network::bits_sent(topo::LinkId link, int direction) const {
  QUARTZ_REQUIRE(direction == 0 || direction == 1, "direction is 0 or 1");
  return line_bits_[static_cast<std::size_t>(link) * 2 + static_cast<std::size_t>(direction)];
}

double Network::utilization(topo::LinkId link, int direction) const {
  QUARTZ_REQUIRE(direction == 0 || direction == 1, "direction is 0 or 1");
  if (now() == 0) return 0.0;
  const TimePs active =
      line_active_[static_cast<std::size_t>(link) * 2 + static_cast<std::size_t>(direction)];
  return static_cast<double>(std::min(active, now())) / static_cast<double>(now());
}

TimePs Network::queue_delay(topo::LinkId link, int direction) const {
  QUARTZ_REQUIRE(direction == 0 || direction == 1, "direction is 0 or 1");
  const std::size_t line =
      static_cast<std::size_t>(link) * 2 + static_cast<std::size_t>(direction);
  const TimePs bias = queue_bias_ != nullptr ? (*queue_bias_)[line] : 0;
  return std::max<TimePs>(0, line_busy_[line] - now()) + bias;
}

void Network::send(topo::NodeId src, topo::NodeId dst, Bits size, int task,
                   std::uint64_t flow_id, std::uint64_t tag) {
  QUARTZ_REQUIRE(topo_->graph.is_host(src) && topo_->graph.is_host(dst),
                 "packets travel host to host");
  QUARTZ_REQUIRE(src != dst, "src and dst must differ");
  QUARTZ_REQUIRE(size > 0, "empty packet");
  assert_owning_thread();

  Packet packet;
  if (shard_bound_) {
    // Host-scoped ids: a pure function of the per-host traffic script,
    // so a packet keeps its id (and stamp) at every shard count.  The
    // global counter would depend on cross-host interleaving.
    QUARTZ_CHECK(owns_node(src), "send() from a host this shard does not own");
    packet.id = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                host_seq_[static_cast<std::size_t>(src)]++;
  } else {
    packet.id = next_packet_id_++;
  }
  packet.key.src = src;
  packet.key.dst = dst;
  packet.key.flow_hash = routing::mix_hash(flow_id);
  packet.size = size;
  packet.created = now();
  packet.task = task;
  packet.tag = tag;
  ++packets_sent_;

  const TimePs ready = now() + config_.host_send_overhead;
  emit([&](auto& sink) { sink.on_send(packet, ready); });
  PacketEvent event;
  event.packet = packet;
  event.node = src;
  event.t0 = ready;
  event.t1 = 0;  // min_finish
  events_.schedule_packet(ready, EventType::kHeaderDecision, event, stamp_of(packet));
}

void Network::on_packet_event(EventType type, PacketEvent& event) {
  switch (type) {
    case EventType::kHeaderDecision:
      transmit(event);
      return;
    case EventType::kTransmitComplete: {
      // A packet queued on or propagating over a link that failed under
      // it is lost (the sequence number moved on).
      if (link_seq_[static_cast<std::size_t>(event.link)] != event.link_seq) {
        drop(event.packet, DropReason::kLinkDown);
        return;
      }
      // Gray failure: the link is up but corrupts packets independently
      // with its drop probability (BER made packet-level).  Shard mode
      // hashes the draw so it is independent of check order.
      const double loss = link_loss_[static_cast<std::size_t>(event.link)];
      if (loss > 0.0) {
        const double u =
            shard_bound_
                ? hashed_corruption_u01(
                      config_.corruption_seed, event.packet.id,
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(event.packet.hops))
                       << 32) |
                          static_cast<std::uint32_t>(event.link))
                : loss_rng_.next_double();
        if (u < loss) {
          drop(event.packet, DropReason::kCorrupted);
          return;
        }
      }
      arrive(event);
      return;
    }
    case EventType::kDelivery: {
      ++packets_delivered_;
      const TimePs delivered = event.t0;
      const TimePs latency = delivered - event.packet.created;
      emit([&](auto& sink) { sink.on_delivery(event.packet, delivered, latency); });
      const auto& handler = handlers_[static_cast<std::size_t>(event.packet.task)];
      if (handler) handler(event.packet, latency);
      return;
    }
    default:
      QUARTZ_CHECK(false, "unexpected packet event type");
  }
}

void Network::arrive(PacketEvent& event) {
  const topo::Graph& graph = topo_->graph;
  Packet& packet = event.packet;
  const topo::NodeId node = event.node;
  const TimePs first_bit = event.t0;
  const TimePs last_bit = event.t1;
  QUARTZ_CHECK(owns_node(node), "packet arrived at a node this shard does not own");
  emit([&](auto& sink) { sink.on_arrival(packet, node, first_bit, last_bit); });

  // The next event is off-link: clear the transit fields, so a pending
  // event reads (and snapshots) the same as a freshly built one.
  event.link = -1;
  event.link_seq = 0;
  if (node == packet.key.dst) {
    const TimePs delivered = last_bit + config_.host_recv_overhead;
    event.t0 = delivered;
    event.t1 = 0;
    events_.rearm_packet(delivered, EventType::kDelivery, stamp_of(packet));
    return;
  }

  TimePs decision;
  TimePs min_finish;
  telemetry::HopKind kind;
  if (graph.is_switch(node)) {
    const topo::SwitchModel& model = graph.model_of(node);
    decision = (model.cut_through ? first_bit : last_bit) + model.latency;
    // A cut-through switch cannot finish sending before it has finished
    // receiving (matters when egress is faster than ingress).
    min_finish = last_bit + model.latency;
    kind = model.cut_through ? telemetry::HopKind::kCutThrough
                             : telemetry::HopKind::kStoreAndForward;
    ++packet.hops;
  } else {
    // Server relay (server-centric fabrics): full receive + OS stack.
    decision = last_bit + config_.server_forward_latency;
    min_finish = decision;
    kind = telemetry::HopKind::kServerRelay;
  }
  emit([&](auto& sink) { sink.on_forward(packet, node, kind, first_bit, last_bit, decision); });
  event.t0 = decision;
  event.t1 = min_finish;
  events_.rearm_packet(decision, EventType::kHeaderDecision, stamp_of(packet));
}

void Network::transmit(PacketEvent& event) {
  const topo::Graph& graph = topo_->graph;
  Packet& packet = event.packet;
  const topo::NodeId node = event.node;
  const TimePs ready = event.t0;
  const TimePs min_finish = event.t1;
  QUARTZ_CHECK(owns_node(node), "transmit at a node this shard does not own");
  const topo::LinkId link_id =
      fib_ != nullptr ? fib_->next_link(node, packet.key) : oracle_->next_link(node, packet.key);
  const topo::Link& link = graph.link(link_id);
  const topo::LinkClass& cls = graph.link_classes()[link.link_class];
  QUARTZ_CHECK(link.a == node || link.b == node, "oracle returned a detached link");

  // Transmitting onto a dead link loses the packet — the oracle only
  // learns of the failure after the detection delay, so this is the
  // blackhole window §3.5's static analysis cannot show.
  if (link_down_[static_cast<std::size_t>(link_id)]) {
    drop(packet, DropReason::kLinkDown);
    return;
  }

  const std::size_t line =
      static_cast<std::size_t>(link_id) * 2 + (node == link.a ? 0 : 1);
  TimePs& busy_until = line_busy_[line];

  // Fluid-background coupling: the bias is the mean residual queueing
  // the (unsimulated) background imposes on this output port, so the
  // foreground packet waits through it exactly as it waits behind
  // foreground occupancy — the wait counts as queueing and against the
  // drop-tail budget.
  const TimePs bias = queue_bias_ != nullptr ? (*queue_bias_)[line] : 0;
  const TimePs start = std::max(ready + bias, busy_until);
  packet.queued += start - ready;
  if (start - ready > config_.max_queue_delay) {
    drop(packet, DropReason::kQueueOverflow);
    return;
  }
  const TimePs finish = std::max(start + transmission_time(packet.size, cls.rate), min_finish);
  busy_until = finish;
  line_active_[line] += finish - start;
  line_bits_[line] += packet.size;
  const int direction = node == link.a ? 0 : 1;
  emit([&](auto& sink) {
    sink.on_transmit(packet, node, link_id, direction, ready, start, finish);
  });

  const topo::NodeId peer = link.other(node);
  const TimePs first_bit = start + cls.propagation;
  const TimePs last_bit = finish + cls.propagation;
  // The in-flight packet carries the link state it observed at
  // transmission; the fail/loss checks happen when the head lands
  // (on_packet_event, kTransmitComplete).
  event.node = peer;
  event.link = link_id;
  event.link_seq = link_seq_[static_cast<std::size_t>(link_id)];
  event.t0 = first_bit;
  event.t1 = last_bit;
  const std::uint64_t stamp = stamp_of(packet);
  if (shard_bound_ && !owns_node(peer)) {
    // The head lands in another shard: hand the transit over through
    // that shard's inbox.  first_bit >= (window start) + lookahead, so
    // the consumer — at most one window behind — never sees its past.
    const std::int32_t dest = (*shard_owner_)[static_cast<std::size_t>(peer)];
    outboxes_[dest]->push(event, first_bit, stamp);
    ++mail_posted_;
    return;
  }
  events_.rearm_packet(first_bit, EventType::kTransmitComplete, stamp);
}

void Network::save(snapshot::Writer& w, const HandlerMap& handlers) const {
  const std::size_t links = link_down_.size();
  w.put_u64(links);
  for (std::size_t i = 0; i < links * 2; ++i) w.put_i64(line_busy_[i]);
  for (std::size_t i = 0; i < links * 2; ++i) w.put_i64(line_active_[i]);
  for (std::size_t i = 0; i < links * 2; ++i) w.put_i64(line_bits_[i]);
  for (std::size_t i = 0; i < links; ++i) w.put_u8(link_down_[i] ? 0 : 1);  // the "up" byte
  for (std::size_t i = 0; i < links; ++i) w.put_u32(link_seq_[i]);
  for (std::size_t i = 0; i < links; ++i) w.put_f64(link_loss_[i]);
  w.put_rng(loss_rng_);
  for (std::size_t i = 0; i < links; ++i)
    w.put_bool(failure_view_.is_dead(static_cast<topo::LinkId>(i)));
  w.put_u64(task_drops_.size());
  for (const std::uint64_t drops : task_drops_) w.put_u64(drops);
  w.put_u64(next_packet_id_);
  w.put_u64(packets_sent_);
  w.put_u64(packets_delivered_);
  w.put_u64(packets_dropped_);
  w.put_u64(telemetry::kDropReasonCount);
  for (const std::uint64_t n : dropped_by_reason_) w.put_u64(n);
  w.put_u64(link_failures_);
  w.put_u64(link_repairs_);
  w.put_bool(shard_bound_);
  if (shard_bound_) {
    w.put_u64(host_seq_.size());
    for (const std::uint32_t seq : host_seq_) w.put_u32(seq);
    w.put_u64(mail_posted_);
  }
  events_.save(w, handlers);
}

void Network::restore(snapshot::Reader& r, const HandlerMap& handlers) {
  assert_owning_thread();
  const std::size_t links = link_down_.size();
  QUARTZ_REQUIRE(r.get_u64() == links,
                 "snapshot topology does not match this network");
  // Only saved values that differ from the fresh state are stored, so a
  // restore commits the pages the saved run had written and no others.
  for (std::size_t i = 0; i < links * 2; ++i) store_if_changed(line_busy_[i], r.get_i64());
  for (std::size_t i = 0; i < links * 2; ++i) store_if_changed(line_active_[i], r.get_i64());
  for (std::size_t i = 0; i < links * 2; ++i) store_if_changed(line_bits_[i], r.get_i64());
  for (std::size_t i = 0; i < links; ++i) {
    store_if_changed(link_down_[i], static_cast<char>(r.get_u8() == 0 ? 1 : 0));
  }
  for (std::size_t i = 0; i < links; ++i) store_if_changed(link_seq_[i], r.get_u32());
  for (std::size_t i = 0; i < links; ++i) store_if_changed(link_loss_[i], r.get_f64());
  r.get_rng(loss_rng_);
  // Replaying the dead bits through set_dead rebuilds the view; the
  // epoch value itself need not match the saved run — consumers only
  // require monotonicity, and a fresh FIB (epoch 0) recompiles lazily
  // with bit-identical decisions.
  for (std::size_t i = 0; i < links; ++i)
    failure_view_.set_dead(static_cast<topo::LinkId>(i), r.get_bool());
  QUARTZ_REQUIRE(r.get_u64() == task_drops_.size(),
                 "snapshot task count does not match; re-register the same tasks "
                 "in the same order before restore");
  for (std::uint64_t& drops : task_drops_) drops = r.get_u64();
  next_packet_id_ = r.get_u64();
  packets_sent_ = r.get_u64();
  packets_delivered_ = r.get_u64();
  packets_dropped_ = r.get_u64();
  QUARTZ_REQUIRE(r.get_u64() == telemetry::kDropReasonCount,
                 "snapshot drop-reason vocabulary mismatch");
  for (std::uint64_t& n : dropped_by_reason_) n = r.get_u64();
  link_failures_ = r.get_u64();
  link_repairs_ = r.get_u64();
  QUARTZ_REQUIRE(r.get_bool() == shard_bound_,
                 "snapshot shard mode does not match this network; bind_shard "
                 "before restore (or not at all) exactly as when saving");
  if (shard_bound_) {
    QUARTZ_REQUIRE(r.get_u64() == host_seq_.size(), "snapshot host-seq table mismatch");
    for (std::uint32_t& seq : host_seq_) seq = r.get_u32();
    mail_posted_ = r.get_u64();
  }
  events_.restore(r, handlers);
}

}  // namespace quartz::sim
