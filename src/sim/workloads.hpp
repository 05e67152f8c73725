// Traffic generators and the paper's workload patterns (§6.1, §7).
//
//  * PoissonFlow — fixed-size packets on a Poisson process (the §7
//    baseline traffic model);
//  * ScatterTask / GatherTask — one sender fanning out to many
//    receivers / many senders converging on one receiver (Fig. 17-18);
//  * ScatterGatherTask — request to every participant, reply on
//    receipt (Fig. 17(c)/18(c));
//  * RpcWorkload — serial request/response pairs measuring RTT (the §6
//    prototype's Thrift "Hello World" RPC); and
//  * BurstSource — Nuttcp-style bursts of packets separated by idle
//    intervals chosen to hit a target bandwidth (§6.1 cross-traffic).
//
// Every generator schedules its work as engine timers; what a pending
// event must remember (an RPC's call and attempt, say) rides in the
// timer's (tag, a, b), and random draws come from the generator's own
// Rng.  Generators are pinned in memory once started (their timers
// point at them); they are neither copyable nor movable.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/network.hpp"
#include "sim/retry_budget.hpp"
#include "telemetry/metrics.hpp"

namespace quartz::sim {

struct FlowParams {
  Bits packet_size = kDefaultPacketSize;
  BitsPerSecond rate = gigabits_per_second(1);
  TimePs start = 0;
  TimePs stop = seconds(1);
};

class PoissonFlow final : public TimerHandler {
 public:
  /// Sends with the given task id; register the task (and its
  /// measurement handler) on the network first.
  PoissonFlow(Network& network, topo::NodeId src, topo::NodeId dst, int task, FlowParams params,
              Rng rng);
  PoissonFlow(const PoissonFlow&) = delete;
  PoissonFlow& operator=(const PoissonFlow&) = delete;

  std::uint64_t packets_sent() const { return sent_; }

 private:
  /// Send one packet and chain the next arrival.
  void on_timer(const TimerEvent& event) override;

  Network& network_;
  topo::NodeId src_, dst_;
  int task_;
  FlowParams params_;
  Rng rng_;
  std::uint64_t flow_id_;
  TimePs mean_gap_;
  std::uint64_t sent_ = 0;
};

struct TaskPatternParams {
  BitsPerSecond per_flow_rate = megabits_per_second(500);
  Bits packet_size = kDefaultPacketSize;
  TimePs start = 0;
  TimePs stop = seconds(1);
};

/// One sender, many receivers: concurrent Poisson flows to each.
class ScatterTask {
 public:
  ScatterTask(Network& network, topo::NodeId sender, std::vector<topo::NodeId> receivers,
              TaskPatternParams params, Rng rng);
  ScatterTask(const ScatterTask&) = delete;
  ScatterTask& operator=(const ScatterTask&) = delete;

  /// Per-packet end-to-end latencies, in microseconds.
  const SampleSet& latencies_us() const { return samples_; }
  /// Output-queue waiting per packet (the congestion share).
  const RunningStats& queueing_us() const { return queueing_; }
  /// Export the task's distributions under `<prefix>.latency_us` /
  /// `<prefix>.queueing_mean_us`.
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

 private:
  SampleSet samples_;
  RunningStats queueing_;
  std::vector<std::unique_ptr<PoissonFlow>> flows_;
};

/// Many senders, one receiver (the incast direction).
class GatherTask {
 public:
  GatherTask(Network& network, std::vector<topo::NodeId> senders, topo::NodeId receiver,
             TaskPatternParams params, Rng rng);
  GatherTask(const GatherTask&) = delete;
  GatherTask& operator=(const GatherTask&) = delete;

  const SampleSet& latencies_us() const { return samples_; }
  const RunningStats& queueing_us() const { return queueing_; }
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

 private:
  SampleSet samples_;
  RunningStats queueing_;
  std::vector<std::unique_ptr<PoissonFlow>> flows_;
};

struct ScatterGatherParams {
  double rounds_per_second = 1000.0;
  Bits packet_size = kDefaultPacketSize;
  TimePs start = 0;
  TimePs stop = seconds(1);
};

/// Rounds arrive as a Poisson process; each round sends a request to
/// every participant, and each participant replies upon receipt.  Both
/// directions' packets are measured (the paper reports latency per
/// packet for the combined operation).
class ScatterGatherTask final : public TimerHandler {
 public:
  ScatterGatherTask(Network& network, topo::NodeId initiator,
                    std::vector<topo::NodeId> participants, ScatterGatherParams params, Rng rng);
  ScatterGatherTask(const ScatterGatherTask&) = delete;
  ScatterGatherTask& operator=(const ScatterGatherTask&) = delete;

  const SampleSet& latencies_us() const { return samples_; }
  const RunningStats& queueing_us() const { return queueing_; }
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

 private:
  /// Start one round and chain the next.
  void on_timer(const TimerEvent& event) override;

  Network& network_;
  topo::NodeId initiator_;
  std::vector<topo::NodeId> participants_;
  ScatterGatherParams params_;
  Rng rng_;
  int request_task_ = -1;
  int reply_task_ = -1;
  std::uint64_t request_flow_base_;
  TimePs mean_gap_;
  SampleSet samples_;
  RunningStats queueing_;
};

struct RpcParams {
  Bits request_size = kDefaultPacketSize;
  Bits reply_size = kDefaultPacketSize;
  int calls = 1000;
  /// Server-side service time before the reply is sent.
  TimePs service_time = 0;

  // --- reliability (fault drills) -------------------------------------------
  /// Client-side RPC timeout; zero disables timeouts and retries (the
  /// original lossless-fabric behaviour).
  TimePs timeout = 0;
  /// Give up on a call after this many retransmissions.
  int max_retries = 8;
  /// Capped exponential backoff between a timeout and the retransmit:
  /// retry k waits min(backoff_base * backoff_multiplier^(k-1),
  /// backoff_cap).
  TimePs backoff_base = microseconds(100);
  double backoff_multiplier = 2.0;
  TimePs backoff_cap = milliseconds(50);
  /// Optional retry budget (may be shared across workloads — the cap is
  /// then global).  A retry the budget denies abandons the call instead
  /// of amplifying load into an already-lossy fabric; nullptr keeps the
  /// unbudgeted per-call max_retries behaviour.
  RetryBudget* retry_budget = nullptr;
};

/// Serial RPC: the next call starts when the previous response lands.
/// With a positive timeout the client retransmits lost requests (or
/// requests whose replies were lost) under capped exponential backoff,
/// so the Thrift-like workload survives transient loss — fault drills
/// measure its goodput and recovery-time percentiles across cuts.
/// Retransmitted requests and stale replies are matched by a per-call
/// sequence number carried in the packet tag.
class RpcWorkload final : public TimerHandler {
 public:
  RpcWorkload(Network& network, topo::NodeId client, topo::NodeId server, RpcParams params,
              Rng rng);
  RpcWorkload(const RpcWorkload&) = delete;
  RpcWorkload& operator=(const RpcWorkload&) = delete;

  /// Per-call completion time (first transmission to accepted reply —
  /// retries included), in microseconds.
  const SampleSet& rtt_us() const { return rtts_; }
  /// Completion times of only the calls that needed >= 1 retry: the
  /// recovery-time distribution across a failure.
  const SampleSet& recovery_us() const { return recovery_us_; }
  std::uint64_t total_retries() const { return total_retries_; }
  /// Retries the attached RetryBudget refused (each abandons its call).
  std::uint64_t budget_denied_retries() const { return budget_denied_; }
  int completed_calls() const { return completed_; }
  /// Calls abandoned after max_retries (permanent failures).
  int abandoned_calls() const { return abandoned_; }
  bool done() const { return completed_ + abandoned_ >= params_.calls; }
  /// Export call counters (`<prefix>.completed` / `.abandoned` /
  /// `.retries`) and the RTT / recovery distributions.
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

 private:
  /// Timer tags and the operands each carries.
  enum TimerTag : std::uint32_t {
    kIssueTag = 0,    ///< first call
    kReplyTag = 1,    ///< server reply after the service time; a = call seq
    kTimeoutTag = 2,  ///< attempt timed out; a = call seq, b = attempt
    kBackoffTag = 3,  ///< backoff over, retransmit; a = call seq
  };

  void on_timer(const TimerEvent& event) override;
  void on_timeout(std::uint64_t seq, std::uint64_t attempt);
  void send_reply(std::uint64_t seq);
  void issue();
  void send_attempt();
  void abandon_call();
  void release_retry_slot();
  TimePs backoff_delay(int retry) const;

  Network& network_;
  topo::NodeId client_, server_;
  RpcParams params_;
  int request_task_ = -1;
  int reply_task_ = -1;
  std::uint64_t flow_id_;
  std::uint64_t call_seq_ = 0;  ///< current call id, carried as packet tag
  int attempt_ = 0;             ///< retransmissions of the current call
  bool awaiting_ = false;
  bool holding_retry_slot_ = false;  ///< current attempt occupies a budget slot
  std::uint64_t budget_denied_ = 0;
  int completed_ = 0;
  int abandoned_ = 0;
  std::uint64_t total_retries_ = 0;
  TimePs issued_at_ = 0;  ///< first transmission of the current call
  SampleSet rtts_;
  SampleSet recovery_us_;
};

struct TransferParams {
  std::int64_t total_bytes = 65'536;
  Bits packet_size = bytes(1500);
  TimePs start = 0;
};

/// A bulk transfer: the whole flow is handed to the NIC at `start` and
/// drains at line rate (the paper's MapReduce-style background flows).
/// Records the flow completion time — when the last packet lands.
class FlowTransfer final : public TimerHandler {
 public:
  FlowTransfer(Network& network, topo::NodeId src, topo::NodeId dst, TransferParams params,
               std::uint64_t flow_id);
  FlowTransfer(const FlowTransfer&) = delete;
  FlowTransfer& operator=(const FlowTransfer&) = delete;

  bool done() const { return delivered_ == packets_; }
  int packets() const { return packets_; }
  /// Time from `start` to the last delivery; only valid once done().
  TimePs completion_time() const;

 private:
  /// Hand the whole flow to the NIC.
  void on_timer(const TimerEvent& event) override;

  Network& network_;
  topo::NodeId src_, dst_;
  TransferParams params_;
  std::uint64_t flow_id_;
  int task_ = -1;
  int packets_ = 0;
  int delivered_ = 0;
  TimePs finished_at_ = 0;
};

struct BurstParams {
  int packets_per_burst = 20;
  Bits packet_size = bytes(1500);
  BitsPerSecond target_rate = megabits_per_second(100);
  TimePs start = 0;
  TimePs stop = seconds(1);
};

/// Bursts of back-to-back packets separated by idle gaps sized to meet
/// the target average bandwidth; bursts from different sources are
/// unsynchronised via a random phase.
class BurstSource final : public TimerHandler {
 public:
  BurstSource(Network& network, topo::NodeId src, topo::NodeId dst, int task, BurstParams params,
              Rng rng);
  BurstSource(const BurstSource&) = delete;
  BurstSource& operator=(const BurstSource&) = delete;

 private:
  /// Send one burst and chain the next.
  void on_timer(const TimerEvent& event) override;

  Network& network_;
  topo::NodeId src_, dst_;
  int task_;
  BurstParams params_;
  Rng rng_;
  std::uint64_t flow_id_;
  TimePs interval_;
};

}  // namespace quartz::sim
