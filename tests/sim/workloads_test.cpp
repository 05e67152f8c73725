#include "sim/workloads.hpp"

#include <gtest/gtest.h>

#include "routing/oracle.hpp"
#include "support/digest_sink.hpp"
#include "topo/builders.hpp"

namespace quartz::sim {
namespace {

struct Fixture {
  topo::BuiltTopology topo;
  std::unique_ptr<routing::EcmpRouting> routing;
  std::unique_ptr<routing::EcmpOracle> oracle;

  Fixture() {
    topo::QuartzRingParams p;
    p.switches = 4;
    p.hosts_per_switch = 4;
    topo = topo::quartz_ring(p);
    routing = std::make_unique<routing::EcmpRouting>(topo.graph);
    oracle = std::make_unique<routing::EcmpOracle>(*routing);
  }
};

TEST(PoissonFlow, RateIsRespected) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  FlowParams params;
  params.rate = gigabits_per_second(1);
  params.packet_size = bytes(400);
  params.stop = milliseconds(100);
  Rng rng(1);
  PoissonFlow flow(net, f.topo.hosts[0], f.topo.hosts[5], task, params, rng);
  net.run_until(params.stop + milliseconds(1));
  // Expected packets = rate * time / size = 1e9 * 0.1 / 3200 = 31250.
  EXPECT_NEAR(static_cast<double>(flow.packets_sent()), 31250.0, 31250.0 * 0.05);
  EXPECT_EQ(net.packets_delivered(), flow.packets_sent());
}

TEST(PoissonFlow, StopsAtStopTime) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  FlowParams params;
  params.rate = gigabits_per_second(1);
  params.stop = milliseconds(1);
  Rng rng(2);
  PoissonFlow flow(net, f.topo.hosts[0], f.topo.hosts[5], task, params, rng);
  net.run_until(milliseconds(50));
  const auto sent_at_stop = flow.packets_sent();
  net.run_until(milliseconds(100));
  EXPECT_EQ(flow.packets_sent(), sent_at_stop);
}

TEST(ScatterTask, MeasuresAllReceivers) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  TaskPatternParams params;
  params.per_flow_rate = megabits_per_second(100);
  params.stop = milliseconds(10);
  std::vector<topo::NodeId> receivers(f.topo.hosts.begin() + 1, f.topo.hosts.begin() + 6);
  Rng rng(3);
  ScatterTask task(net, f.topo.hosts[0], receivers, params, rng);
  net.run_until(params.stop + milliseconds(1));
  EXPECT_GT(task.latencies_us().count(), 100u);
  // ULL mesh: a few microseconds at most under light load.
  EXPECT_LT(task.latencies_us().mean(), 5.0);
}

TEST(GatherTask, ConvergesOnReceiver) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  TaskPatternParams params;
  params.per_flow_rate = megabits_per_second(100);
  params.stop = milliseconds(10);
  std::vector<topo::NodeId> senders(f.topo.hosts.begin() + 1, f.topo.hosts.begin() + 8);
  Rng rng(4);
  GatherTask task(net, senders, f.topo.hosts[0], params, rng);
  net.run_until(params.stop + milliseconds(1));
  EXPECT_GT(task.latencies_us().count(), 100u);
}

TEST(ScatterGatherTask, RepliesReturnForEveryRequest) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  ScatterGatherParams params;
  params.rounds_per_second = 1000;
  params.stop = milliseconds(20);
  std::vector<topo::NodeId> participants(f.topo.hosts.begin() + 1, f.topo.hosts.begin() + 5);
  Rng rng(5);
  ScatterGatherTask task(net, f.topo.hosts[0], participants, params, rng);
  net.run_until(params.stop + milliseconds(2));
  // Every round: 4 requests + 4 replies, all measured.
  EXPECT_GT(task.latencies_us().count(), 0u);
  EXPECT_EQ(task.latencies_us().count() % 2, 0u);
  EXPECT_EQ(net.packets_delivered(), task.latencies_us().count());
}

TEST(RpcWorkload, CompletesRequestedCalls) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  RpcParams params;
  params.calls = 100;
  Rng rng(6);
  RpcWorkload rpc(net, f.topo.hosts[0], f.topo.hosts[9], params, rng);
  net.run_until(seconds(1));
  EXPECT_TRUE(rpc.done());
  EXPECT_EQ(rpc.rtt_us().count(), 100u);
  // RTT must be at least two one-way fabric traversals.
  EXPECT_GT(rpc.rtt_us().min(), 1.0);
}

TEST(RpcWorkload, ServiceTimeAddsToRtt) {
  Fixture f;
  Network netA(f.topo, *f.oracle);
  Network netB(f.topo, *f.oracle);
  RpcParams fast;
  fast.calls = 50;
  RpcParams slow = fast;
  slow.service_time = microseconds(10);
  Rng rngA(7), rngB(7);
  RpcWorkload a(netA, f.topo.hosts[0], f.topo.hosts[9], fast, rngA);
  RpcWorkload b(netB, f.topo.hosts[0], f.topo.hosts[9], slow, rngB);
  netA.run_until(seconds(1));
  netB.run_until(seconds(1));
  EXPECT_NEAR(b.rtt_us().mean() - a.rtt_us().mean(), 10.0, 0.5);
}

TEST(RpcWorkload, SerialExecution) {
  // With serial RPCs, at most one request is in flight: delivered
  // packets = 2 * completed calls.
  Fixture f;
  Network net(f.topo, *f.oracle);
  RpcParams params;
  params.calls = 25;
  Rng rng(8);
  RpcWorkload rpc(net, f.topo.hosts[1], f.topo.hosts[13], params, rng);
  net.run_until(seconds(1));
  EXPECT_EQ(net.packets_delivered(), 50u);
}

/// The (single) link hanging a host off its switch.
topo::LinkId host_link(const Fixture& f, topo::NodeId host) {
  return f.topo.graph.neighbors(host).front().link;
}

TEST(RpcWorkload, SharedRetryBudgetBoundsAmplificationOnTotalLoss) {
  // Regression: a 100%-loss link must not trigger unbounded retry
  // growth.  Two clients blackholed at their host links and two healthy
  // clients share one budget; the blackholed pair can only retry with
  // tokens the whole batch earned, so total send amplification stays
  // near 1 + ratio no matter how long the loss lasts.
  Fixture f;
  Network net(f.topo, *f.oracle);
  RetryBudget::Config budget_config;
  budget_config.ratio = 0.1;
  budget_config.burst = 5.0;
  RetryBudget budget(budget_config);

  RpcParams params;
  params.calls = 100;
  params.timeout = microseconds(100);
  params.max_retries = 8;
  params.backoff_base = microseconds(20);
  params.backoff_cap = microseconds(100);
  params.retry_budget = &budget;

  Rng rng(9);
  RpcWorkload dark_a(net, f.topo.hosts[0], f.topo.hosts[9], params, rng.fork());
  RpcWorkload dark_b(net, f.topo.hosts[1], f.topo.hosts[10], params, rng.fork());
  RpcWorkload healthy_a(net, f.topo.hosts[2], f.topo.hosts[11], params, rng.fork());
  RpcWorkload healthy_b(net, f.topo.hosts[3], f.topo.hosts[12], params, rng.fork());
  net.set_link_loss(host_link(f, f.topo.hosts[0]), 1.0);
  net.set_link_loss(host_link(f, f.topo.hosts[1]), 1.0);
  net.run_until(seconds(1));

  // Healthy clients never notice; blackholed clients abandon rather
  // than retry forever.
  EXPECT_TRUE(healthy_a.done());
  EXPECT_TRUE(healthy_b.done());
  EXPECT_EQ(healthy_a.abandoned_calls() + healthy_b.abandoned_calls(), 0);
  EXPECT_TRUE(dark_a.done());
  EXPECT_TRUE(dark_b.done());
  EXPECT_EQ(dark_a.completed_calls() + dark_b.completed_calls(), 0);
  EXPECT_GT(dark_a.budget_denied_retries() + dark_b.budget_denied_retries(), 0u);

  // Every retry anywhere was granted by the shared budget, and the
  // grants obey the token arithmetic: at most ratio x first attempts
  // plus the initial burst.
  const std::uint64_t retries = dark_a.total_retries() + dark_b.total_retries() +
                                healthy_a.total_retries() + healthy_b.total_retries();
  EXPECT_EQ(retries, budget.granted());
  EXPECT_LE(static_cast<double>(budget.granted()),
            budget_config.ratio * static_cast<double>(budget.first_attempts()) +
                budget_config.burst);
  EXPECT_LE(budget.amplification_bound(), 1.2);
  EXPECT_EQ(budget.inflight(), 0);  // every slot released at quiescence
}

TEST(RpcWorkload, RetryBudgetInflightCeilingCapsConcurrentRetransmissions) {
  // With plentiful tokens but a global in-flight ceiling of one, two
  // blackholed clients cannot both have a retransmission outstanding:
  // the collisions surface as denials even though the bucket is full.
  Fixture f;
  Network net(f.topo, *f.oracle);
  RetryBudget::Config budget_config;
  budget_config.ratio = 1.0;
  budget_config.burst = 1'000.0;
  budget_config.max_inflight = 1;
  RetryBudget budget(budget_config);

  RpcParams params;
  params.calls = 50;
  params.timeout = microseconds(100);
  params.max_retries = 4;
  params.backoff_base = microseconds(20);
  params.backoff_cap = microseconds(50);
  params.retry_budget = &budget;

  Rng rng(10);
  RpcWorkload dark_a(net, f.topo.hosts[0], f.topo.hosts[9], params, rng.fork());
  RpcWorkload dark_b(net, f.topo.hosts[1], f.topo.hosts[10], params, rng.fork());
  net.set_link_loss(host_link(f, f.topo.hosts[0]), 1.0);
  net.set_link_loss(host_link(f, f.topo.hosts[1]), 1.0);
  net.run_until(seconds(1));

  EXPECT_TRUE(dark_a.done());
  EXPECT_TRUE(dark_b.done());
  EXPECT_GT(budget.denied(), 0u);
  EXPECT_GT(budget.tokens(), 1.0);  // denials came from the ceiling, not the bucket
  EXPECT_EQ(budget.inflight(), 0);
}

TEST(BurstSource, HitsTargetBandwidth) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  BurstParams params;
  params.target_rate = megabits_per_second(200);
  params.packets_per_burst = 20;
  params.packet_size = bytes(1500);
  params.stop = milliseconds(100);
  Rng rng(9);
  BurstSource source(net, f.topo.hosts[0], f.topo.hosts[5], task, params, rng);
  net.run_until(params.stop + milliseconds(5));
  const double bits_sent = static_cast<double>(net.packets_sent()) * 12000.0;
  const double achieved = bits_sent / 0.1;  // over the 100 ms window
  EXPECT_NEAR(achieved, 2e8, 2e7);
}

TEST(BurstSource, SendsWholeBurstsBackToBack) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  BurstParams params;
  params.target_rate = megabits_per_second(100);
  params.packets_per_burst = 7;
  params.stop = milliseconds(5);
  Rng rng(10);
  BurstSource source(net, f.topo.hosts[0], f.topo.hosts[5], task, params, rng);
  net.run_until(milliseconds(10));
  EXPECT_EQ(net.packets_sent() % 7, 0u);
  EXPECT_GT(net.packets_sent(), 0u);
}

TEST(FlowTransfer, CompletionTimeMatchesLineRate) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  TransferParams params;
  params.total_bytes = 15'000;  // 10 x 1500B at 10G = 12 us serialization
  FlowTransfer transfer(net, f.topo.hosts[0], f.topo.hosts[5], params, 1);
  net.run_until(milliseconds(1));
  ASSERT_TRUE(transfer.done());
  EXPECT_EQ(transfer.packets(), 10);
  // Last packet leaves the NIC at 10 x 1.2 us; the fabric adds about a
  // microsecond of cut-through pipeline on top.
  EXPECT_GE(transfer.completion_time(), microseconds(12));
  EXPECT_LE(transfer.completion_time(), microseconds(15));
}

TEST(FlowTransfer, PartialLastPacket) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  TransferParams params;
  params.total_bytes = 1'600;  // 1500 + 100
  FlowTransfer transfer(net, f.topo.hosts[0], f.topo.hosts[5], params, 2);
  net.run_until(milliseconds(1));
  ASSERT_TRUE(transfer.done());
  EXPECT_EQ(transfer.packets(), 2);
}

TEST(FlowTransfer, LargerFlowsTakeLonger) {
  Fixture f;
  Network netA(f.topo, *f.oracle);
  Network netB(f.topo, *f.oracle);
  TransferParams small;
  small.total_bytes = 16'000;
  TransferParams large;
  large.total_bytes = 160'000;
  FlowTransfer a(netA, f.topo.hosts[0], f.topo.hosts[5], small, 3);
  FlowTransfer b(netB, f.topo.hosts[0], f.topo.hosts[5], large, 3);
  netA.run_until(milliseconds(5));
  netB.run_until(milliseconds(5));
  ASSERT_TRUE(a.done() && b.done());
  EXPECT_GT(b.completion_time(), a.completion_time() * 5);
}

TEST(FlowTransfer, NotDoneBeforeItStarts) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  TransferParams params;
  params.start = milliseconds(2);
  FlowTransfer transfer(net, f.topo.hosts[0], f.topo.hosts[5], params, 4);
  net.run_until(milliseconds(1));
  EXPECT_FALSE(transfer.done());
  EXPECT_THROW(transfer.completion_time(), std::logic_error);
  net.run_until(milliseconds(5));
  EXPECT_TRUE(transfer.done());
}

TEST(Network, UtilizationTracksLoad) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  FlowParams flow;
  flow.rate = gigabits_per_second(5);  // 50% of the 10G host link
  flow.stop = milliseconds(50);
  Rng rng(21);
  PoissonFlow source(net, f.topo.hosts[0], f.topo.hosts[5], task, flow, rng);
  net.run_until(flow.stop);
  // Find the sender's access link.
  for (const topo::LinkId id : net.graph().link_ids()) {
    const topo::Link& link = net.graph().link(id);
    if (link.a == f.topo.hosts[0] || link.b == f.topo.hosts[0]) {
      const int dir = link.a == f.topo.hosts[0] ? 0 : 1;
      EXPECT_NEAR(net.utilization(id, dir), 0.5, 0.05);
      EXPECT_GT(net.bits_sent(id, dir), 0);
      // Reverse direction carried nothing.
      EXPECT_EQ(net.bits_sent(id, 1 - dir), 0);
    }
  }
}

TEST(Network, TaskDropAccounting) {
  Fixture f;
  SimConfig config;
  config.max_queue_delay = microseconds(2);
  Network net(f.topo, *f.oracle, config);
  const int quiet = net.new_task({});
  const int noisy = net.new_task({});
  // Overload one access link with the noisy task only.
  for (int i = 0; i < 100; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[5], bytes(1500), noisy, 1);
  }
  net.send(f.topo.hosts[1], f.topo.hosts[6], bytes(400), quiet, 2);
  net.run_until(milliseconds(1));
  EXPECT_GT(net.task_drops(noisy), 0u);
  EXPECT_EQ(net.task_drops(quiet), 0u);
  EXPECT_EQ(net.task_drops(noisy), net.packets_dropped());
  EXPECT_THROW(net.task_drops(99), std::invalid_argument);
}

/// One generator on the fixture's ring with a DigestSink attached;
/// `finish` runs the network and returns the delivery + drop stream
/// digest.
struct DigestRun {
  Fixture f;
  Network net{f.topo, *f.oracle};
  test::DigestSink digest;

  DigestRun() { net.add_sink(&digest); }
  std::uint64_t finish(TimePs until) {
    net.run_until(until);
    EXPECT_GT(digest.deliveries, 0u);
    return digest.stream_digest;
  }
};

TEST(Workloads, GeneratorDigestsArePinned) {
  // Committed literals: any change to a generator's draws, its event
  // schedule or the order its timers interleave with packets shows up
  // here as a diff.
  {
    DigestRun run;
    FlowParams params;
    params.rate = gigabits_per_second(2);
    params.stop = milliseconds(5);
    PoissonFlow flow(run.net, run.f.topo.hosts[0], run.f.topo.hosts[9], run.net.new_task({}),
                     params, Rng(31));
    EXPECT_EQ(run.finish(milliseconds(6)), 0x409f79d23eed2cbfull) << "PoissonFlow";
  }
  {
    DigestRun run;
    TaskPatternParams params;
    params.per_flow_rate = megabits_per_second(800);
    params.stop = milliseconds(4);
    std::vector<topo::NodeId> receivers(run.f.topo.hosts.begin() + 1,
                                        run.f.topo.hosts.begin() + 9);
    ScatterTask task(run.net, run.f.topo.hosts[0], receivers, params, Rng(32));
    EXPECT_EQ(run.finish(milliseconds(5)), 0xff9dd689321bd6f4ull) << "ScatterTask";
  }
  {
    DigestRun run;
    TaskPatternParams params;
    params.per_flow_rate = megabits_per_second(2000);
    params.stop = milliseconds(4);
    std::vector<topo::NodeId> senders(run.f.topo.hosts.begin() + 4, run.f.topo.hosts.end());
    GatherTask task(run.net, senders, run.f.topo.hosts[0], params, Rng(33));
    EXPECT_EQ(run.finish(milliseconds(5)), 0x85912c8194d625a7ull) << "GatherTask";
  }
  {
    DigestRun run;
    ScatterGatherParams params;
    params.rounds_per_second = 20'000;
    params.stop = milliseconds(4);
    std::vector<topo::NodeId> participants(run.f.topo.hosts.begin() + 2,
                                           run.f.topo.hosts.begin() + 14);
    ScatterGatherTask task(run.net, run.f.topo.hosts[1], participants, params, Rng(34));
    EXPECT_EQ(run.finish(milliseconds(5)), 0xf48ed00611d1e0c5ull) << "ScatterGatherTask";
  }
  {
    // Timeouts, backoff and a shared retry budget, over a lossy access
    // link so every timer path fires.
    DigestRun run;
    RetryBudget budget;
    RpcParams params;
    params.calls = 400;
    params.service_time = microseconds(3);
    params.timeout = microseconds(40);
    params.max_retries = 3;
    params.backoff_base = microseconds(5);
    params.backoff_cap = microseconds(30);
    params.retry_budget = &budget;
    Rng rng(35);
    RpcWorkload lossy(run.net, run.f.topo.hosts[0], run.f.topo.hosts[9], params, rng.fork());
    RpcWorkload clean(run.net, run.f.topo.hosts[2], run.f.topo.hosts[13], params, rng.fork());
    run.net.set_link_loss(host_link(run.f, run.f.topo.hosts[0]), 0.3);
    const std::uint64_t digest = run.finish(milliseconds(40));
    EXPECT_GT(lossy.total_retries(), 0u);
    EXPECT_GT(lossy.abandoned_calls(), 0);
    EXPECT_GT(run.digest.drops, 0u);
    EXPECT_EQ(digest, 0xa93236af47f12c64ull) << "RpcWorkload";
  }
  {
    DigestRun run;
    TransferParams params;
    params.total_bytes = 300'000;
    params.start = microseconds(150);
    FlowTransfer a(run.net, run.f.topo.hosts[0], run.f.topo.hosts[5], params, 41);
    params.start = microseconds(170);
    FlowTransfer b(run.net, run.f.topo.hosts[1], run.f.topo.hosts[5], params, 42);
    EXPECT_EQ(run.finish(milliseconds(2)), 0xc3162136d4a68b1bull) << "FlowTransfer";
  }
  {
    DigestRun run;
    const int task = run.net.new_task({});
    BurstParams params;
    params.target_rate = gigabits_per_second(3);
    params.stop = milliseconds(4);
    BurstSource a(run.net, run.f.topo.hosts[0], run.f.topo.hosts[6], task, params, Rng(36));
    BurstSource b(run.net, run.f.topo.hosts[1], run.f.topo.hosts[6], task, params, Rng(37));
    EXPECT_EQ(run.finish(milliseconds(5)), 0xb51f3a07de6fc6c8ull) << "BurstSource";
  }
}

TEST(Workloads, RejectBadParameters) {
  Fixture f;
  Network net(f.topo, *f.oracle);
  Rng rng(11);
  FlowParams bad_flow;
  bad_flow.rate = 0;
  EXPECT_THROW(PoissonFlow(net, f.topo.hosts[0], f.topo.hosts[1], net.new_task({}), bad_flow,
                           rng),
               std::invalid_argument);
  EXPECT_THROW(ScatterTask(net, f.topo.hosts[0], {}, {}, rng), std::invalid_argument);
  RpcParams bad_rpc;
  bad_rpc.calls = 0;
  EXPECT_THROW(RpcWorkload(net, f.topo.hosts[0], f.topo.hosts[1], bad_rpc, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace quartz::sim
