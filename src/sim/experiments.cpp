#include "sim/experiments.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"
#include "routing/hierarchical.hpp"
#include "sim/workloads.hpp"
#include "telemetry/stream_sink.hpp"
#include "topo/builders.hpp"
#include "topo/composite.hpp"

namespace quartz::sim {
namespace {

using topo::NodeId;

/// `count` distinct nodes sampled from `pool` (order randomised).
std::vector<NodeId> sample_distinct(const std::vector<NodeId>& pool, std::size_t count,
                                    Rng& rng) {
  QUARTZ_REQUIRE(count <= pool.size(), "sample larger than pool");
  std::vector<NodeId> shuffled = pool;
  rng.shuffle(shuffled);
  shuffled.resize(count);
  return shuffled;
}

void merge_samples(SampleSet& into, const SampleSet& from) {
  for (double s : from.samples()) into.add(s);
}

}  // namespace

std::string fabric_name(Fabric fabric) {
  switch (fabric) {
    case Fabric::kThreeTierTree: return "three-tier tree";
    case Fabric::kJellyfish: return "jellyfish";
    case Fabric::kQuartzInCore: return "quartz in core";
    case Fabric::kQuartzInEdge: return "quartz in edge";
    case Fabric::kQuartzInEdgeAndCore: return "quartz in edge and core";
    case Fabric::kQuartzInJellyfish: return "quartz in jellyfish";
    case Fabric::kComposite: return "composite";
  }
  return "unknown";
}

std::string pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::kScatter: return "scatter";
    case Pattern::kGather: return "gather";
    case Pattern::kScatterGather: return "scatter/gather";
  }
  return "unknown";
}

std::string prototype_name(PrototypeFabric fabric) {
  return fabric == PrototypeFabric::kTwoTierTree ? "two-tier tree" : "quartz";
}

std::string core_kind_name(CoreKind kind) {
  switch (kind) {
    case CoreKind::kNonBlockingSwitch: return "non-blocking switch";
    case CoreKind::kQuartzEcmp: return "quartz in core (ECMP)";
    case CoreKind::kQuartzVlb: return "quartz in core (VLB)";
    case CoreKind::kQuartzAdaptive: return "quartz in core (adaptive VLB)";
  }
  return "unknown";
}

BuiltFabric build_fabric(Fabric fabric, const FabricConfig& config) {
  BuiltFabric built;
  switch (fabric) {
    case Fabric::kThreeTierTree: {
      topo::ThreeTierParams params;
      params.pods = config.pods;
      params.tors_per_pod = config.tors_per_pod;
      params.hosts_per_tor = config.hosts_per_tor;
      built.topo = topo::three_tier_tree(params);
      break;
    }
    case Fabric::kJellyfish: {
      topo::JellyfishParams params;
      params.switches = config.jellyfish_switches;
      params.hosts_per_switch = config.jellyfish_hosts_per_switch;
      params.inter_switch_ports = config.jellyfish_inter_ports;
      params.seed = config.seed;
      built.topo = topo::jellyfish(params);
      break;
    }
    case Fabric::kQuartzInCore: {
      topo::QuartzCoreParams params;
      params.tree.pods = config.pods;
      params.tree.tors_per_pod = config.tors_per_pod;
      params.tree.hosts_per_tor = config.hosts_per_tor;
      params.ring_switches = config.ring_size;
      built.topo = topo::quartz_in_core(params);
      break;
    }
    case Fabric::kQuartzInEdge: {
      topo::QuartzEdgeParams params;
      params.pods = config.pods;
      params.ring_switches = config.ring_size;
      // Preserve the host count of the tree it replaces.
      params.hosts_per_ring_switch =
          config.tors_per_pod * config.hosts_per_tor / config.ring_size;
      built.topo = topo::quartz_in_edge(params);
      break;
    }
    case Fabric::kQuartzInEdgeAndCore: {
      topo::QuartzEdgeCoreParams params;
      params.pods = config.pods;
      params.edge_ring_switches = config.ring_size;
      params.hosts_per_ring_switch =
          config.tors_per_pod * config.hosts_per_tor / config.ring_size;
      params.core_ring_switches = config.ring_size;
      built.topo = topo::quartz_in_edge_and_core(params);
      break;
    }
    case Fabric::kQuartzInJellyfish: {
      topo::QuartzJellyfishParams params;
      params.rings = config.jellyfish_switches / config.ring_size;
      params.switches_per_ring = config.ring_size;
      params.hosts_per_switch = config.jellyfish_hosts_per_switch;
      params.inter_ring_links = config.jellyfish_inter_ports;
      params.seed = config.seed;
      built.topo = topo::quartz_in_jellyfish(params);
      break;
    }
    case Fabric::kComposite: {
      std::string error;
      const auto spec = topo::CompositeSpec::parse(config.composite, &error);
      QUARTZ_REQUIRE(spec.has_value(), "bad composite spec '" + config.composite + "': " + error);
      built.topo = topo::build_composite(*spec);
      break;
    }
  }

  // Rings-of-rings route through the level-aware oracle, whose dense
  // (node, level-group) FIB replaces both EcmpRouting's per-ToR groups
  // and the compiled Fib.
  if (fabric == Fabric::kComposite && built.topo.composite != nullptr &&
      built.topo.composite->uniform) {
    built.oracle = std::make_unique<routing::HierOracle>(built.topo);
    return built;
  }

  built.routing = std::make_unique<routing::EcmpRouting>(built.topo.graph);
  if (config.vlb_fraction > 0.0 && !built.topo.quartz_rings.empty()) {
    built.oracle = std::make_unique<routing::VlbOracle>(*built.routing, built.topo.quartz_rings,
                                                        config.vlb_fraction);
  } else {
    built.oracle = std::make_unique<routing::EcmpOracle>(*built.routing);
  }
  if (config.use_fib) {
    built.fib = std::make_unique<routing::Fib>(*built.routing, *built.oracle);
  }
  return built;
}

TaskExperimentResult run_task_experiment(Fabric fabric, const FabricConfig& config,
                                         const TaskExperimentParams& params) {
  QUARTZ_REQUIRE(params.tasks >= 1, "need at least one task");
  BuiltFabric built = build_fabric(fabric, config);
  Network network(built.topo, *built.oracle);
  if (built.fib != nullptr) network.set_fib(built.fib.get());
  Rng rng(params.seed);

  // Optional observers; attaching them never perturbs the event stream.
  std::unique_ptr<telemetry::PacketTracer> tracer;
  if (params.telemetry.trace) {
    telemetry::PacketTracer::Options trace_options;
    trace_options.sample_every = params.telemetry.trace_sample_every;
    tracer = std::make_unique<telemetry::PacketTracer>(trace_options);
    network.add_sink(tracer.get());
  }
  std::unique_ptr<telemetry::PeriodicSampler> sampler;
  if (params.telemetry.sample_bucket > 0) {
    telemetry::PeriodicSampler::Options sampler_options;
    sampler_options.bucket = params.telemetry.sample_bucket;
    sampler = std::make_unique<telemetry::PeriodicSampler>(sampler_options);
    network.add_sink(sampler.get());
  }
  std::unique_ptr<telemetry::BinaryStream> stream;
  std::unique_ptr<telemetry::BinaryStreamSink> stream_sink;
  if (params.telemetry.stream != nullptr) {
    telemetry::BinaryStream::Options stream_options;
    stream_options.stream_id = params.telemetry.stream_id;
    stream_options.background = params.telemetry.stream_background;
    stream = std::make_unique<telemetry::BinaryStream>(*params.telemetry.stream, stream_options);
    stream_sink = std::make_unique<telemetry::BinaryStreamSink>(*stream);
    network.set_stream_sink(stream_sink.get());
  }

  TaskPatternParams flow_params;
  flow_params.per_flow_rate = params.per_flow_rate;
  flow_params.stop = params.duration;

  ScatterGatherParams sg_params;
  sg_params.rounds_per_second = params.scatter_gather_rounds_per_second;
  sg_params.stop = params.duration;

  RunningStats queueing_us;
  std::vector<std::unique_ptr<ScatterTask>> scatters;
  std::vector<std::unique_ptr<GatherTask>> gathers;
  std::vector<std::unique_ptr<ScatterGatherTask>> scatter_gathers;

  // Fig. 18's local task lives in "nearby racks": gather hosts from the
  // lowest rack IDs until the pool is twice the local task's size.  In
  // pod / ring fabrics adjacent racks share a pod or ring; in Jellyfish
  // adjacent rack IDs mean nothing to the random wiring (the point of
  // the experiment).
  std::vector<NodeId> local_pool;
  {
    const std::size_t want = 2 * (static_cast<std::size_t>(params.local_fanout) + 1);
    int rack = 0;
    while (local_pool.size() < want) {
      std::size_t before = local_pool.size();
      for (NodeId host : built.topo.hosts) {
        if (built.topo.rack_of(host) == rack) local_pool.push_back(host);
      }
      ++rack;
      if (local_pool.size() == before && rack > 1024) break;  // no such rack
    }
    if (local_pool.size() < static_cast<std::size_t>(params.local_fanout) + 1) {
      local_pool = built.topo.hosts;  // degenerate fabrics: fall back
    }
  }

  for (int t = 0; t < params.tasks; ++t) {
    const bool local = params.localized && t == 0;
    const std::vector<NodeId>& pool = local ? local_pool : built.topo.hosts;
    const int fanout = local ? params.local_fanout : params.fanout;
    QUARTZ_REQUIRE(static_cast<std::size_t>(fanout) + 1 <= pool.size(),
                   "fanout larger than host pool");
    std::vector<NodeId> members =
        sample_distinct(pool, static_cast<std::size_t>(fanout) + 1, rng);
    const NodeId head = members.back();
    members.pop_back();

    switch (params.pattern) {
      case Pattern::kScatter:
        scatters.push_back(
            std::make_unique<ScatterTask>(network, head, members, flow_params, rng.fork()));
        break;
      case Pattern::kGather:
        gathers.push_back(
            std::make_unique<GatherTask>(network, members, head, flow_params, rng.fork()));
        break;
      case Pattern::kScatterGather:
        scatter_gathers.push_back(
            std::make_unique<ScatterGatherTask>(network, head, members, sg_params, rng.fork()));
        break;
    }
  }

  network.run_until(params.duration + milliseconds(1));
  if (stream != nullptr) stream->finish();

  // Fig. 18 measures the localized task alone; Fig. 17 averages every
  // task's packets.
  SampleSet all;
  auto collect = [&](const SampleSet& s, const RunningStats& q, bool first) {
    if (!params.localized || first) {
      merge_samples(all, s);
      queueing_us.merge(q);
    }
  };
  for (std::size_t i = 0; i < scatters.size(); ++i) {
    collect(scatters[i]->latencies_us(), scatters[i]->queueing_us(), i == 0);
  }
  for (std::size_t i = 0; i < gathers.size(); ++i) {
    collect(gathers[i]->latencies_us(), gathers[i]->queueing_us(), i == 0);
  }
  for (std::size_t i = 0; i < scatter_gathers.size(); ++i) {
    collect(scatter_gathers[i]->latencies_us(), scatter_gathers[i]->queueing_us(), i == 0);
  }

  TaskExperimentResult result;
  result.packets_measured = all.count();
  result.packets_dropped = network.packets_dropped();
  if (!all.empty()) {
    result.mean_latency_us = all.mean();
    result.p99_latency_us = all.percentile(99.0);
    result.ci95_us = all.confidence_half_width(0.95);
  }
  if (!queueing_us.empty()) result.mean_queueing_us = queueing_us.mean();

  if (tracer != nullptr) {
    result.decomposition = tracer->summary();
    for (int task : tracer->tasks()) {
      result.task_decompositions.emplace_back(task, tracer->summary(task));
    }
  }
  if (sampler != nullptr) result.timeline = sampler->summaries();
  if (params.telemetry.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *params.telemetry.metrics;
    reg.counter("sim.packets_sent").inc(network.packets_sent());
    reg.counter("sim.packets_delivered").inc(network.packets_delivered());
    reg.counter("sim.drops.queue_overflow")
        .inc(network.packets_dropped(DropReason::kQueueOverflow));
    reg.counter("sim.drops.link_down").inc(network.packets_dropped(DropReason::kLinkDown));
    if (built.fib != nullptr) {
      const routing::Fib::Stats& fib = built.fib->stats();
      reg.counter("sim.fib.hits").inc(fib.hits);
      reg.counter("sim.fib.misses").inc(fib.misses);
      reg.counter("sim.fib.slow_path").inc(fib.slow_path);
      reg.counter("sim.fib.invalidations").inc(fib.invalidations);
    }
    reg.gauge("sim.duration_ms").set(to_microseconds(params.duration) / 1000.0);
    telemetry::LatencyRecorder& lat = reg.latency("task.latency_us");
    for (double s : all.samples()) lat.add_us(s);
  }
  return result;
}

ReplicaSweepResult run_task_replicas(Fabric fabric, const FabricConfig& config,
                                     const TaskExperimentParams& params, int replicas,
                                     const SweepOptions& sweep) {
  QUARTZ_REQUIRE(replicas > 0, "need at least one replica");
  std::vector<int> points(static_cast<std::size_t>(replicas));
  // Registries are thread-confined: one per replica, folded in order.
  std::vector<telemetry::MetricRegistry> registries(points.size());
  SweepRunner runner(sweep);
  ReplicaSweepResult out;
  // The fabric is shared state across replicas only by value: each
  // point builds its own copy, so workers never touch a common graph.
  out.replicas = runner.run(points, [&](const int&, SweepContext ctx) {
    TaskExperimentParams p = params;
    p.seed = ctx.seed;
    if (p.telemetry.metrics != nullptr) p.telemetry.metrics = &registries[ctx.index];
    if (p.telemetry.stream != nullptr) {
      // One stream per replica, tagged with the replica index so the
      // decoder's (time, stream, seq) merge is byte-identical for any
      // worker count; workers seal inline rather than spawning a
      // drainer thread each.
      p.telemetry.stream_id = static_cast<std::uint32_t>(ctx.index);
      p.telemetry.stream_background = false;
    }
    return run_task_experiment(fabric, config, p);
  });
  for (const TaskExperimentResult& r : out.replicas) {
    out.mean_latency_us.add(r.mean_latency_us);
    out.p99_latency_us.add(r.p99_latency_us);
    out.packets_measured += r.packets_measured;
    out.packets_dropped += r.packets_dropped;
  }
  if (params.telemetry.metrics != nullptr) {
    for (const telemetry::MetricRegistry& r : registries) params.telemetry.metrics->merge(r);
  }
  return out;
}

CrossTrafficResult run_cross_traffic(PrototypeFabric fabric, const CrossTrafficParams& params) {
  // The §6 prototype: four 48-port 1 Gb/s managed switches, three hosts
  // per switch here (so S1 can source all cross-traffic), rewirable as
  // a 2-tier tree (S4 as aggregation) or a 4-switch Quartz ring.
  topo::LinkDefaults links;
  links.host_rate = gigabits_per_second(1);
  links.fabric_rate = gigabits_per_second(1);

  topo::BuiltTopology built;
  if (fabric == PrototypeFabric::kTwoTierTree) {
    topo::TwoTierParams tree;
    tree.tors = 3;
    tree.hosts_per_tor = 3;
    tree.aggs = 1;
    tree.tor_model = topo::SwitchModel::managed_1g();
    tree.agg_model = topo::SwitchModel::managed_1g();
    tree.links = links;
    built = topo::two_tier_tree(tree);
  } else {
    topo::QuartzRingParams ring;
    ring.switches = 4;
    ring.hosts_per_switch = 3;
    ring.mesh_rate = links.fabric_rate;
    ring.switch_model = topo::SwitchModel::managed_1g();
    ring.links = links;
    built = topo::quartz_ring(ring);
  }

  // Roles mirror Fig. 13: the RPC runs client-on-S2 to server-on-S3;
  // bursty cross-traffic flows from three servers on S1 and S2 to a
  // second host on S3.  In the tree all cross-traffic converges with
  // the RPC on the shared agg->S3 link.  In the Quartz prototype the
  // S2-attached source would share the S2->S3 lightpath with the RPC,
  // so — exactly as the §6 prototype does with SPAIN virtual
  // interfaces — its flows are pinned to the indirect three-hop path
  // through S4, keeping the latency-sensitive channel clear.
  const auto& s1 = built.host_groups[0];
  const auto& s2 = built.host_groups[1];
  const auto& s3 = built.host_groups[2];
  const NodeId client = s2[0];
  const NodeId server = s3[0];
  const NodeId cross_dst = s3[1];

  // Two sources on S1, the third on S2 (avoiding the RPC client),
  // cycling for larger counts.
  const std::vector<NodeId> placement = {s1[0], s1[1], s2[1]};
  std::vector<NodeId> cross_sources;
  for (int i = 0; i < params.cross_sources; ++i) {
    cross_sources.push_back(placement[static_cast<std::size_t>(i) % placement.size()]);
  }

  routing::EcmpRouting routing(built.graph);
  std::unique_ptr<routing::RoutingOracle> oracle;
  if (fabric == PrototypeFabric::kQuartz) {
    auto pinned = std::make_unique<routing::PinnedDetourOracle>(routing, built.quartz_rings);
    const NodeId s4 = built.quartz_rings[0][3];
    for (NodeId src : cross_sources) {
      if (built.graph.node(src).rack == built.graph.node(client).rack) {
        pinned->pin(src, cross_dst, s4);
      }
    }
    oracle = std::move(pinned);
  } else {
    oracle = std::make_unique<routing::EcmpOracle>(routing);
  }
  Network network(built, *oracle);
  Rng rng(params.seed);

  RpcParams rpc_params;
  rpc_params.calls = params.rpc_calls;
  RpcWorkload rpc(network, client, server, rpc_params, rng.fork());

  const int cross_task = network.new_task({});
  std::vector<std::unique_ptr<BurstSource>> bursts;
  if (params.cross_mbps > 0.0) {
    for (NodeId src : cross_sources) {
      BurstParams burst;
      burst.packets_per_burst = params.burst_packets;
      burst.target_rate = megabits_per_second(params.cross_mbps);
      burst.stop = seconds(10);
      bursts.push_back(std::make_unique<BurstSource>(network, src, cross_dst, cross_task, burst,
                                                     rng.fork()));
    }
  }

  while (!rpc.done() && network.now() < seconds(10)) {
    network.run_until(network.now() + milliseconds(10));
  }

  CrossTrafficResult result;
  result.rpcs_completed = static_cast<int>(rpc.rtt_us().count());
  if (!rpc.rtt_us().empty()) {
    result.mean_rtt_us = rpc.rtt_us().mean();
    result.ci95_us = rpc.rtt_us().confidence_half_width(0.95);
  }
  return result;
}

PathologicalResult run_pathological(CoreKind kind, const PathologicalParams& params) {
  QUARTZ_REQUIRE(params.flows >= 1, "needs at least one flow");
  QUARTZ_REQUIRE(params.aggregate_gbps > 0, "offered load must be positive");

  topo::BuiltTopology built;
  if (kind == CoreKind::kNonBlockingSwitch) {
    topo::SingleSwitchParams single;
    single.hosts = params.flows * 2;
    single.host_rate = gigabits_per_second(40);
    built = topo::single_switch(single);
  } else {
    topo::QuartzRingParams ring;
    ring.switches = 4;
    ring.hosts_per_switch = params.flows;
    ring.mesh_rate = gigabits_per_second(40);
    ring.links.host_rate = gigabits_per_second(40);
    built = topo::quartz_ring(ring);
  }

  routing::EcmpRouting routing(built.graph);
  std::unique_ptr<routing::RoutingOracle> oracle;
  routing::AdaptiveVlbOracle* adaptive = nullptr;
  if (kind == CoreKind::kQuartzVlb) {
    oracle = std::make_unique<routing::VlbOracle>(routing, built.quartz_rings,
                                                  params.vlb_fraction);
  } else if (kind == CoreKind::kQuartzAdaptive) {
    auto owned = std::make_unique<routing::AdaptiveVlbOracle>(routing, built.quartz_rings,
                                                              params.adaptive_threshold);
    adaptive = owned.get();
    oracle = std::move(owned);
  } else {
    oracle = std::make_unique<routing::EcmpOracle>(routing);
  }

  SimConfig config;
  config.max_queue_delay = params.max_queue_delay;
  Network network(built, *oracle, config);
  if (adaptive != nullptr) {
    adaptive->attach_probe(&network);
    if (params.adaptive_flowlet_timeout > 0) {
      adaptive->attach_clock(&network);
      adaptive->set_flowlet_timeout(params.adaptive_flowlet_timeout);
    }
  }
  Rng rng(params.seed);

  // All flows go from hosts on S1 to hosts on S2 (Fig. 19), stressing
  // the single switch-to-switch lightpath under direct routing.
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  if (kind == CoreKind::kNonBlockingSwitch) {
    const auto& hosts = built.hosts;
    senders.assign(hosts.begin(), hosts.begin() + params.flows);
    receivers.assign(hosts.begin() + params.flows, hosts.end());
  } else {
    senders = built.host_groups[0];
    receivers = built.host_groups[1];
  }

  SampleSet samples;
  std::unordered_map<std::uint64_t, std::uint64_t> last_id_of_flow;
  std::uint64_t reordered = 0;
  const int task = network.new_task([&](const Packet& packet, TimePs latency) {
    samples.add(to_microseconds(latency));
    auto& last = last_id_of_flow[packet.key.flow_hash];
    if (packet.id < last) ++reordered;
    last = std::max(last, packet.id);
  });

  FlowParams flow;
  flow.rate = gigabits_per_second(params.aggregate_gbps / params.flows);
  flow.stop = params.duration;
  std::vector<std::unique_ptr<PoissonFlow>> flows;
  for (int i = 0; i < params.flows; ++i) {
    flows.push_back(std::make_unique<PoissonFlow>(network, senders[static_cast<std::size_t>(i)],
                                                  receivers[static_cast<std::size_t>(i)], task,
                                                  flow, rng.fork()));
  }

  network.run_until(params.duration + params.max_queue_delay + milliseconds(1));

  PathologicalResult result;
  result.packets_delivered = samples.count();
  result.packets_dropped = network.packets_dropped();
  result.reordered_packets = reordered;
  result.saturated = result.packets_dropped > 0;
  if (!samples.empty()) {
    result.mean_latency_us = samples.mean();
    result.p99_latency_us = samples.percentile(99.0);
  }
  return result;
}

}  // namespace quartz::sim
