#include "sim/workloads.hpp"

#include <utility>

#include "common/check.hpp"

namespace quartz::sim {
namespace {

TimePs poisson_mean_gap(Bits packet_size, BitsPerSecond rate) {
  QUARTZ_REQUIRE(rate > 0, "flow rate must be positive");
  return static_cast<TimePs>(static_cast<double>(packet_size) * 1e12 / rate);
}

TimePs exponential_gap(Rng& rng, TimePs mean) {
  return std::max<TimePs>(1, static_cast<TimePs>(rng.next_exponential(static_cast<double>(mean))));
}

}  // namespace

PoissonFlow::PoissonFlow(Network& network, topo::NodeId src, topo::NodeId dst, int task,
                         FlowParams params, Rng rng)
    : network_(network),
      src_(src),
      dst_(dst),
      task_(task),
      params_(params),
      rng_(rng),
      flow_id_(rng_.next_u64()),
      mean_gap_(poisson_mean_gap(params.packet_size, params.rate)) {
  QUARTZ_REQUIRE(params_.stop > params_.start, "flow must have a positive duration");
  // First arrival one exponential gap after start (stationary process).
  const TimePs first = params_.start + exponential_gap(rng_, mean_gap_);
  if (first < params_.stop) network_.schedule_timer(first, {this});
}

void PoissonFlow::on_timer(const TimerEvent&) {
  network_.send(src_, dst_, params_.packet_size, task_, flow_id_);
  ++sent_;
  const TimePs next = network_.now() + exponential_gap(rng_, mean_gap_);
  if (next < params_.stop) network_.schedule_timer(next, {this});
}

ScatterTask::ScatterTask(Network& network, topo::NodeId sender,
                         std::vector<topo::NodeId> receivers, TaskPatternParams params, Rng rng) {
  QUARTZ_REQUIRE(!receivers.empty(), "scatter needs receivers");
  const int task = network.new_task([this](const Packet& packet, TimePs latency) {
    samples_.add(to_microseconds(latency));
    queueing_.add(to_microseconds(packet.queued));
  });
  FlowParams flow;
  flow.packet_size = params.packet_size;
  flow.rate = params.per_flow_rate;
  flow.start = params.start;
  flow.stop = params.stop;
  for (topo::NodeId r : receivers) {
    flows_.push_back(std::make_unique<PoissonFlow>(network, sender, r, task, flow, rng.fork()));
  }
}

GatherTask::GatherTask(Network& network, std::vector<topo::NodeId> senders,
                       topo::NodeId receiver, TaskPatternParams params, Rng rng) {
  QUARTZ_REQUIRE(!senders.empty(), "gather needs senders");
  const int task = network.new_task([this](const Packet& packet, TimePs latency) {
    samples_.add(to_microseconds(latency));
    queueing_.add(to_microseconds(packet.queued));
  });
  FlowParams flow;
  flow.packet_size = params.packet_size;
  flow.rate = params.per_flow_rate;
  flow.start = params.start;
  flow.stop = params.stop;
  for (topo::NodeId s : senders) {
    flows_.push_back(std::make_unique<PoissonFlow>(network, s, receiver, task, flow, rng.fork()));
  }
}

ScatterGatherTask::ScatterGatherTask(Network& network, topo::NodeId initiator,
                                     std::vector<topo::NodeId> participants,
                                     ScatterGatherParams params, Rng rng)
    : network_(network),
      initiator_(initiator),
      participants_(std::move(participants)),
      params_(params),
      rng_(rng),
      request_flow_base_(rng_.next_u64()) {
  QUARTZ_REQUIRE(!participants_.empty(), "scatter/gather needs participants");
  QUARTZ_REQUIRE(params_.rounds_per_second > 0, "round rate must be positive");

  reply_task_ = network_.new_task([this](const Packet& packet, TimePs latency) {
    samples_.add(to_microseconds(latency));
    queueing_.add(to_microseconds(packet.queued));
  });
  request_task_ = network_.new_task([this](const Packet& packet, TimePs latency) {
    samples_.add(to_microseconds(latency));
    queueing_.add(to_microseconds(packet.queued));
    // Reply returns over the participant's own flow (stable path).
    network_.send(packet.key.dst, initiator_, params_.packet_size, reply_task_,
                  request_flow_base_ ^ static_cast<std::uint64_t>(packet.key.dst) ^ 0x5256ull);
  });

  mean_gap_ = static_cast<TimePs>(1e12 / params_.rounds_per_second);
  const TimePs first = params_.start + exponential_gap(rng_, mean_gap_);
  if (first < params_.stop) network_.schedule_timer(first, {this});
}

void ScatterGatherTask::on_timer(const TimerEvent&) {
  for (topo::NodeId p : participants_) {
    network_.send(initiator_, p, params_.packet_size, request_task_,
                  request_flow_base_ ^ static_cast<std::uint64_t>(p));
  }
  const TimePs next = network_.now() + exponential_gap(rng_, mean_gap_);
  if (next < params_.stop) network_.schedule_timer(next, {this});
}

RpcWorkload::RpcWorkload(Network& network, topo::NodeId client, topo::NodeId server,
                         RpcParams params, Rng rng)
    : network_(network),
      client_(client),
      server_(server),
      params_(params),
      flow_id_(rng.next_u64()) {
  QUARTZ_REQUIRE(params_.calls > 0, "RPC workload needs at least one call");
  QUARTZ_REQUIRE(params_.timeout >= 0, "timeout cannot be negative");
  if (params_.timeout > 0) {
    QUARTZ_REQUIRE(params_.max_retries >= 0, "max_retries cannot be negative");
    QUARTZ_REQUIRE(params_.backoff_base > 0, "backoff base must be positive");
    QUARTZ_REQUIRE(params_.backoff_multiplier >= 1.0, "backoff must not shrink");
    QUARTZ_REQUIRE(params_.backoff_cap >= params_.backoff_base, "backoff cap below base");
  }

  reply_task_ = network_.new_task([this](const Packet& packet, TimePs) {
    // A retransmitted request can produce duplicate replies, and a slow
    // reply can land after its call was abandoned; accept only the
    // reply to the call we are waiting on.
    if (!awaiting_ || packet.tag != call_seq_) return;
    awaiting_ = false;
    release_retry_slot();
    const double rtt = to_microseconds(network_.now() - issued_at_);
    rtts_.add(rtt);
    if (attempt_ > 0) recovery_us_.add(rtt);
    ++completed_;
    if (completed_ + abandoned_ < params_.calls) issue();
  });
  request_task_ = network_.new_task([this](const Packet& packet, TimePs) {
    // The server echoes the call sequence number so the client can
    // match replies to attempts.
    if (params_.service_time > 0) {
      network_.schedule_timer(network_.now() + params_.service_time,
                              {this, kReplyTag, packet.tag, 0});
    } else {
      send_reply(packet.tag);
    }
  });
  network_.schedule_timer(network_.now(), {this, kIssueTag, 0, 0});
}

void RpcWorkload::on_timer(const TimerEvent& event) {
  switch (event.tag) {
    case kIssueTag:
      return issue();
    case kReplyTag:
      return send_reply(event.a);
    case kTimeoutTag:
      return on_timeout(event.a, event.b);
    case kBackoffTag:
      if (awaiting_ && call_seq_ == event.a) send_attempt();
      return;
  }
  QUARTZ_CHECK(false, "unknown RPC timer tag");
}

void RpcWorkload::send_reply(std::uint64_t seq) {
  network_.send(server_, client_, params_.reply_size, reply_task_, flow_id_ ^ 0x52ull, seq);
}

void RpcWorkload::issue() {
  ++call_seq_;
  attempt_ = 0;
  awaiting_ = true;
  issued_at_ = network_.now();
  if (params_.retry_budget != nullptr) params_.retry_budget->on_first_attempt();
  send_attempt();
}

void RpcWorkload::send_attempt() {
  network_.send(client_, server_, params_.request_size, request_task_, flow_id_, call_seq_);
  if (params_.timeout <= 0) return;  // lossless-fabric mode: no timer
  network_.schedule_timer(network_.now() + params_.timeout,
                          {this, kTimeoutTag, call_seq_, static_cast<std::uint64_t>(attempt_)});
}

void RpcWorkload::on_timeout(std::uint64_t seq, std::uint64_t attempt) {
  // Stale timer: the call completed, was abandoned, or a retransmit
  // already superseded this attempt.
  if (!awaiting_ || call_seq_ != seq || static_cast<std::uint64_t>(attempt_) != attempt) return;
  // The attempt that timed out is resolved (unanswered): its budget
  // slot is free before we decide whether to retransmit again.
  release_retry_slot();
  if (attempt_ >= params_.max_retries) return abandon_call();
  if (params_.retry_budget != nullptr) {
    if (!params_.retry_budget->try_acquire()) {
      // The budget would rather fail this call than feed the storm.
      ++budget_denied_;
      return abandon_call();
    }
    holding_retry_slot_ = true;
  }
  ++attempt_;
  ++total_retries_;
  network_.schedule_timer(network_.now() + backoff_delay(attempt_), {this, kBackoffTag, seq, 0});
}

void RpcWorkload::abandon_call() {
  awaiting_ = false;
  release_retry_slot();
  ++abandoned_;
  if (completed_ + abandoned_ < params_.calls) issue();
}

void RpcWorkload::release_retry_slot() {
  if (!holding_retry_slot_) return;
  params_.retry_budget->release();
  holding_retry_slot_ = false;
}

TimePs RpcWorkload::backoff_delay(int retry) const {
  double delay = static_cast<double>(params_.backoff_base);
  for (int i = 1; i < retry; ++i) {
    delay *= params_.backoff_multiplier;
    if (delay >= static_cast<double>(params_.backoff_cap)) break;
  }
  return std::min(params_.backoff_cap, std::max<TimePs>(1, static_cast<TimePs>(delay)));
}

FlowTransfer::FlowTransfer(Network& network, topo::NodeId src, topo::NodeId dst,
                           TransferParams params, std::uint64_t flow_id)
    : network_(network), src_(src), dst_(dst), params_(params), flow_id_(flow_id) {
  QUARTZ_REQUIRE(params_.total_bytes > 0, "transfer needs bytes");
  QUARTZ_REQUIRE(params_.packet_size > 0, "packet size must be positive");
  const Bits total_bits = bytes(params_.total_bytes);
  packets_ = static_cast<int>((total_bits + params_.packet_size - 1) / params_.packet_size);

  task_ = network_.new_task([this](const Packet&, TimePs) {
    ++delivered_;
    if (delivered_ == packets_) finished_at_ = network_.now();
  });
  network_.schedule_timer(params_.start, {this});
}

void FlowTransfer::on_timer(const TimerEvent&) {
  Bits remaining = bytes(params_.total_bytes);
  while (remaining > 0) {
    const Bits size = std::min(remaining, params_.packet_size);
    network_.send(src_, dst_, size, task_, flow_id_);
    remaining -= size;
  }
}

TimePs FlowTransfer::completion_time() const {
  QUARTZ_CHECK(done(), "transfer not finished");
  return finished_at_ - params_.start;
}

BurstSource::BurstSource(Network& network, topo::NodeId src, topo::NodeId dst, int task,
                         BurstParams params, Rng rng)
    : network_(network), src_(src), dst_(dst), task_(task), params_(params), rng_(rng),
      flow_id_(rng_.next_u64()) {
  QUARTZ_REQUIRE(params_.target_rate > 0, "burst rate must be positive");
  QUARTZ_REQUIRE(params_.packets_per_burst > 0, "burst needs packets");
  const double burst_bits =
      static_cast<double>(params_.packet_size) * params_.packets_per_burst;
  interval_ = static_cast<TimePs>(burst_bits * 1e12 / params_.target_rate);
  QUARTZ_REQUIRE(interval_ > 0, "burst interval must be positive");
  // Random phase so concurrent sources are unsynchronised (§6.1).
  const TimePs first = params_.start + static_cast<TimePs>(rng_.next_below(
                                           static_cast<std::uint64_t>(interval_)));
  if (first < params_.stop) network_.schedule_timer(first, {this});
}

void BurstSource::on_timer(const TimerEvent&) {
  for (int i = 0; i < params_.packets_per_burst; ++i) {
    network_.send(src_, dst_, params_.packet_size, task_, flow_id_);
  }
  const TimePs next = network_.now() + interval_;
  if (next < params_.stop) network_.schedule_timer(next, {this});
}

namespace {

void publish_task_metrics(telemetry::MetricRegistry& registry, const std::string& prefix,
                          const SampleSet& samples, const RunningStats& queueing) {
  telemetry::LatencyRecorder& latency = registry.latency(prefix + ".latency_us");
  for (double s : samples.samples()) latency.add_us(s);
  if (!queueing.empty()) registry.gauge(prefix + ".queueing_mean_us").set(queueing.mean());
}

}  // namespace

void ScatterTask::publish_metrics(telemetry::MetricRegistry& registry,
                                  const std::string& prefix) const {
  publish_task_metrics(registry, prefix, samples_, queueing_);
}

void GatherTask::publish_metrics(telemetry::MetricRegistry& registry,
                                 const std::string& prefix) const {
  publish_task_metrics(registry, prefix, samples_, queueing_);
}

void ScatterGatherTask::publish_metrics(telemetry::MetricRegistry& registry,
                                        const std::string& prefix) const {
  publish_task_metrics(registry, prefix, samples_, queueing_);
}

void RpcWorkload::publish_metrics(telemetry::MetricRegistry& registry,
                                  const std::string& prefix) const {
  registry.counter(prefix + ".completed").inc(static_cast<std::uint64_t>(completed_));
  registry.counter(prefix + ".abandoned").inc(static_cast<std::uint64_t>(abandoned_));
  registry.counter(prefix + ".retries").inc(total_retries_);
  registry.counter(prefix + ".retry_budget_denied").inc(budget_denied_);
  telemetry::LatencyRecorder& rtt = registry.latency(prefix + ".rtt_us");
  for (double s : rtts_.samples()) rtt.add_us(s);
  telemetry::LatencyRecorder& recovery = registry.latency(prefix + ".recovery_us");
  for (double s : recovery_us_.samples()) recovery.add_us(s);
}

}  // namespace quartz::sim
