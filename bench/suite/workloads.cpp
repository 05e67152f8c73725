#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>

#include "chaos/sharded_storm.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "flow/maxmin.hpp"
#include "routing/fib.hpp"
#include "routing/hierarchical.hpp"
#include "serve/serve_loop.hpp"
#include "sim/experiments.hpp"
#include "sim/fluid.hpp"
#include "sim/network.hpp"
#include "sim/workloads.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/stream_sink.hpp"
#include "topo/composite.hpp"

namespace quartz::bench_suite {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

namespace {

using Phase = RepMeter::Phase;
using topo::NodeId;

constexpr TimePs kSlice = milliseconds(1);

/// Drive `advance(t)` to `end`.  Untraced: one call.  Traced: one call
/// per 1 ms of simulated time, each under a "sim.slice" span that also
/// records the engine events it ran when `events` can count them (the
/// engines run incrementally, so slicing cannot change the outputs —
/// the traced pass checks that it does not).
template <class Advance>
void run_sliced(Trace* trace, TimePs end, Advance&& advance,
                const std::function<std::uint64_t()>& events = {}) {
  if (trace == nullptr) {
    advance(end);
    return;
  }
  for (TimePs t = kSlice;; t += kSlice) {
    const TimePs to = std::min(t, end);
    const int id = trace->open("sim.slice");
    const std::uint64_t before = events ? events() : 0;
    advance(to);
    if (events) trace->set_events(id, static_cast<double>(events() - before));
    trace->close(id);
    if (to == end) break;
  }
}

/// Passive sink counting line transmissions (one per hop).
class HopCounter final : public telemetry::TelemetrySink {
 public:
  void on_transmit(const sim::Packet&, topo::NodeId, topo::LinkId, int, TimePs, TimePs,
                   TimePs) override {
    ++hops;
  }
  std::uint64_t hops = 0;
};

/// Forwards every routing question to the wrapped oracle and times
/// the calls.  Behind a Fib it sees only misses (compile_entry) and
/// slow-path decisions (next_link): the routing layer's time off its
/// fast path.  Without a Fib it sees every forwarding decision.
class TimedOracle final : public routing::RoutingOracle {
 public:
  explicit TimedOracle(const routing::RoutingOracle& inner) : inner_(&inner) {}

  topo::LinkId next_link(topo::NodeId node, routing::FlowKey& key) const override {
    const double t0 = wall_seconds();
    const topo::LinkId link = inner_->next_link(node, key);
    seconds_ += wall_seconds() - t0;
    return link;
  }
  void compile_entry(topo::NodeId node, std::int32_t group,
                     routing::FibCompiler& out) const override {
    const double t0 = wall_seconds();
    inner_->compile_entry(node, group, out);
    seconds_ += wall_seconds() - t0;
  }
  double seconds() const { return seconds_; }

 private:
  const routing::RoutingOracle* inner_;
  mutable double seconds_ = 0;
};

void add_drops(Layers& layers, const sim::Network& net) {
  layers["network.drops.queue_overflow"] +=
      static_cast<double>(net.packets_dropped(sim::DropReason::kQueueOverflow));
  layers["network.drops.link_down"] +=
      static_cast<double>(net.packets_dropped(sim::DropReason::kLinkDown));
  layers["network.drops.corrupted"] +=
      static_cast<double>(net.packets_dropped(sim::DropReason::kCorrupted));
}

/// Layer metrics derived from a traced rep's spans and totals.
void add_trace_layers(const Trace& trace, const RepResult& rep, double events, double hops,
                      Layers& layers) {
  std::vector<double> slices_ms;
  for (double d : trace.durations("sim.slice")) slices_ms.push_back(d * 1e3);
  layers["sim.slices"] = static_cast<double>(slices_ms.size());
  layers["sim.slice_ms_p50"] = percentile(slices_ms, 50.0);
  layers["sim.slice_ms_p99"] = percentile(slices_ms, 99.0);
  layers["topo.build_s"] += trace.total("topo.build");
  layers["routing.build_s"] += trace.total("routing.build");
  layers["network.build_s"] = trace.total("network.build");
  layers["workload.arm_s"] = trace.total("workload.arm");
  layers["harvest_s"] = trace.total("harvest");
  layers["engine.events"] = events;
  layers["engine.ns_per_event"] = events > 0 ? 1e9 * rep.meter.run_s / events : 0.0;
  layers["engine.run_allocs"] = static_cast<double>(rep.meter.run_allocs);
  layers["network.hops"] = hops;
  layers["network.ns_per_hop"] = hops > 0 ? 1e9 * rep.meter.run_s / hops : 0.0;
}

// ---------------------------------------------------------------------------
// fig18_local — the §7 Fig. 18 localized-scatter sweep, mirroring
// run_task_experiment's serial path point by point.

class Fig18Local final : public Workload {
 public:
  Fig18Local(std::uint64_t seed, bool smoke)
      : seed_(seed), duration_(smoke ? microseconds(400) : milliseconds(20)) {}

  std::uint64_t reference(Checks& checks) override {
    // Faithfulness: one point of this harness equals the library's own
    // experiment runner on the same parameters.
    sim::TaskExperimentParams params = task_params(1);
    const sim::TaskExperimentResult lib = sim::run_task_experiment(kFabrics[0], {}, params);
    RepMeter meter;
    Layers unused;
    Point mine = run_point(kFabrics[0], 1, meter, nullptr, unused, false);
    checks.expect(mine.mean_us == lib.mean_latency_us && mine.p99_us == lib.p99_latency_us &&
                      mine.packets_measured == lib.packets_measured &&
                      mine.dropped == lib.packets_dropped,
                  "fig18_local: harness point differs from run_task_experiment");
    return rep(nullptr, checks).digest;
  }

  RepResult rep(Trace* trace, Checks& checks) override {
    RepResult out;
    ScopedSpan rep_span(trace, "rep");
    Digest digest;
    for (int tasks = 1; tasks <= kMaxTasks; ++tasks) {
      for (sim::Fabric fabric : kFabrics) {
        ScopedSpan point_span(trace, "point");
        const Point p = run_point(fabric, tasks, out.meter, trace, out.layers, false);
        digest.add(p.mean_us);
        digest.add(p.p99_us);
        digest.add(p.packets_measured);
        digest.add(p.dropped);
        out.packets += p.delivered;
        checks.expect(p.packets_measured > 0, "fig18_local: a point measured no packets");
      }
    }
    out.meter.finish();
    out.digest = digest.value();
    const double lookups = out.layers["routing.fib_hits"] + out.layers["routing.fib_misses"] +
                           out.layers["routing.fib_slow_path"];
    out.layers["routing.fib_hit_ratio"] = lookups > 0 ? out.layers["routing.fib_hits"] / lookups
                                                      : 0.0;
    if (trace != nullptr) {
      add_trace_layers(*trace, out, out.layers["engine.events"], out.layers["network.hops"],
                       out.layers);
    }
    return out;
  }

  double setup_only() override {
    RepMeter meter;
    Layers unused;
    for (int tasks = 1; tasks <= kMaxTasks; ++tasks) {
      for (sim::Fabric fabric : kFabrics) run_point(fabric, tasks, meter, nullptr, unused, true);
    }
    meter.finish();
    return meter.setup_s;
  }

 private:
  static constexpr int kMaxTasks = 6;
  static constexpr sim::Fabric kFabrics[] = {
      sim::Fabric::kThreeTierTree, sim::Fabric::kJellyfish, sim::Fabric::kQuartzInJellyfish,
      sim::Fabric::kQuartzInEdgeAndCore};

  struct Point {
    double mean_us = 0;
    double p99_us = 0;
    std::uint64_t packets_measured = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delivered = 0;
  };

  sim::TaskExperimentParams task_params(int tasks) const {
    sim::TaskExperimentParams params;
    params.pattern = sim::Pattern::kScatter;
    params.tasks = tasks;
    params.localized = true;
    params.duration = duration_;
    params.seed = seed_;
    return params;
  }

  /// One (fabric, tasks) point: the same calls, in the same order, as
  /// run_task_experiment for a localized scatter without telemetry.
  Point run_point(sim::Fabric fabric, int tasks, RepMeter& meter, Trace* trace, Layers& layers,
                  bool setup_only) const {
    const sim::TaskExperimentParams params = task_params(tasks);
    meter.enter(Phase::kSetup);
    // Initialized in place: the routing state points into the topology,
    // so a BuiltFabric must never be moved.
    const sim::BuiltFabric built = [&] {
      ScopedSpan span(trace, "topo.build");
      return sim::build_fabric(fabric, {});
    }();
    // The traced rep routes through a timing decorator with its own
    // Fib over it; decisions are identical, only their cost is seen.
    std::unique_ptr<TimedOracle> timed;
    std::unique_ptr<routing::Fib> traced_fib;
    const routing::RoutingOracle* oracle = built.oracle.get();
    routing::Fib* fib = built.fib.get();
    if (trace != nullptr) {
      ScopedSpan span(trace, "routing.build");
      timed = std::make_unique<TimedOracle>(*built.oracle);
      traced_fib = std::make_unique<routing::Fib>(*built.routing, *timed);
      oracle = timed.get();
      fib = traced_fib.get();
    }
    std::optional<sim::Network> network;
    HopCounter hops;
    {
      ScopedSpan span(trace, "network.build");
      network.emplace(built.topo, *oracle);
      network->set_fib(fib);
      if (trace != nullptr) network->add_sink(&hops);
    }
    std::vector<std::unique_ptr<sim::ScatterTask>> scatters;
    {
      ScopedSpan span(trace, "workload.arm");
      Rng rng(params.seed);
      sim::TaskPatternParams flow_params;
      flow_params.per_flow_rate = params.per_flow_rate;
      flow_params.stop = params.duration;
      const std::vector<NodeId> local_pool = local_pool_of(built.topo, params.local_fanout);
      for (int t = 0; t < params.tasks; ++t) {
        const bool local = t == 0;
        const std::vector<NodeId>& pool = local ? local_pool : built.topo.hosts;
        const int fanout = local ? params.local_fanout : params.fanout;
        std::vector<NodeId> members = pool;
        rng.shuffle(members);
        members.resize(static_cast<std::size_t>(fanout) + 1);
        const NodeId head = members.back();
        members.pop_back();
        scatters.push_back(
            std::make_unique<sim::ScatterTask>(*network, head, members, flow_params, rng.fork()));
      }
    }
    Point point;
    if (setup_only) return point;

    meter.enter(Phase::kRun);
    {
      ScopedSpan span(trace, "run");
      run_sliced(
          trace, params.duration + milliseconds(1), [&](TimePs t) { network->run_until(t); },
          [&] { return network->events_processed(); });
    }
    meter.enter(Phase::kHarvest);
    ScopedSpan span(trace, "harvest");
    // Fig. 18 measures the localized task (task 0) alone.
    const SampleSet& local = scatters.front()->latencies_us();
    point.packets_measured = local.count();
    point.dropped = network->packets_dropped();
    point.delivered = network->packets_delivered();
    if (!local.empty()) {
      point.mean_us = local.mean();
      point.p99_us = local.percentile(99.0);
    }
    const routing::Fib::Stats& fs = fib->stats();
    layers["routing.fib_hits"] += static_cast<double>(fs.hits);
    layers["routing.fib_misses"] += static_cast<double>(fs.misses);
    layers["routing.fib_slow_path"] += static_cast<double>(fs.slow_path);
    layers["routing.fib_invalidations"] += static_cast<double>(fs.invalidations);
    layers["engine.events"] += static_cast<double>(network->events_processed());
    layers["engine.packet_pool_slots"] =
        std::max(layers["engine.packet_pool_slots"],
                 static_cast<double>(network->engine().packet_pool_capacity()));
    layers["topo.switches"] += static_cast<double>(built.topo.graph.switches().size());
    layers["topo.links"] += static_cast<double>(built.topo.graph.link_count());
    layers["network.hops"] += static_cast<double>(hops.hops);
    add_drops(layers, *network);
    if (timed != nullptr) layers["routing.slow_path_s"] += timed->seconds();
    return point;
  }

  /// Fig. 18's "nearby racks": hosts from the lowest rack ids until the
  /// pool is twice the local task's size (run_task_experiment's rule).
  static std::vector<NodeId> local_pool_of(const topo::BuiltTopology& topo, int local_fanout) {
    std::vector<NodeId> pool;
    const std::size_t want = 2 * (static_cast<std::size_t>(local_fanout) + 1);
    int rack = 0;
    while (pool.size() < want) {
      const std::size_t before = pool.size();
      for (NodeId host : topo.hosts) {
        if (topo.rack_of(host) == rack) pool.push_back(host);
      }
      ++rack;
      if (pool.size() == before && rack > 1024) break;
    }
    if (pool.size() < static_cast<std::size_t>(local_fanout) + 1) pool = topo.hosts;
    return pool;
  }

  std::uint64_t seed_;
  TimePs duration_;
};

// ---------------------------------------------------------------------------
// scale_hybrid — bench_scale's largest point: a 110,592-switch
// ring-of-rings with four CBR foreground flows and a fluid background.

class ScaleHybrid final : public Workload {
 public:
  ScaleHybrid(std::uint64_t seed, bool smoke)
      : seed_(seed),
        spec_text_(smoke ? "ring-of-rings:16x16x16+10" : "ring-of-rings:48x48x48+10"),
        duration_(smoke ? milliseconds(20) : seconds(1)) {}

  std::uint64_t reference(Checks& checks) override { return rep(nullptr, checks).digest; }

  RepResult rep(Trace* trace, Checks& checks) override {
    RepResult out;
    run(trace, &checks, out);
    return out;
  }

  double setup_only() override {
    RepResult out;
    run(nullptr, nullptr, out);
    return out.meter.setup_s;
  }

 private:
  /// One rep; a null `checks` stops after set-up.
  void run(Trace* trace, Checks* checks, RepResult& out) const {
    {
      ScopedSpan rep_span(trace, "rep");
      out.meter.enter(Phase::kSetup);
      const std::optional<topo::CompositeSpec> spec = topo::CompositeSpec::parse(spec_text_);
      if (!spec) throw std::runtime_error("bad composite spec " + spec_text_);
      topo::CompositeParams params;
      params.spec = *spec;
      // Foreground island: one host per switch of the first leaf ring
      // plus two switches of the second, so flows cross a trunk.
      params.foreground_leaf_switches = spec->dims.back() + 2;
      params.foreground_hosts_per_switch = 1;
      std::optional<topo::BuiltTopology> topo;
      {
        ScopedSpan span(trace, "topo.build");
        topo.emplace(topo::build_composite(params));
      }
      std::optional<routing::HierOracle> oracle;
      {
        ScopedSpan span(trace, "routing.build");
        oracle.emplace(*topo);
      }
      // The traced rep forwards through a timing decorator (HierOracle
      // is the FIB here, so it sees every decision); the fluid
      // background keeps the oracle itself.
      std::optional<TimedOracle> timed;
      std::optional<sim::Network> net;
      HopCounter hops;
      {
        ScopedSpan span(trace, "network.build");
        if (trace != nullptr) {
          timed.emplace(*oracle);
          net.emplace(*topo, *timed);
          net->add_sink(&hops);
        } else {
          net.emplace(*topo, *oracle);
        }
      }
      std::optional<sim::CbrSource> source;
      std::optional<sim::FluidBackground> fluid;
      std::vector<sim::FluidDemand> demands;
      // Foreground latency total: the output that depends on which
      // hosts the seed picked (the fluid background does not).
      std::uint64_t latency_ps = 0;
      {
        ScopedSpan span(trace, "workload.arm");
        const int task = net->new_task([&](const sim::Packet&, TimePs latency) {
          latency_ps += static_cast<std::uint64_t>(latency);
        });
        source.emplace(*net, foreground(topo->hosts, static_cast<std::size_t>(spec->dims.back())),
                       task, 0, duration_);
        source->arm();
        const std::vector<NodeId>& hosts = topo->hosts;
        for (std::size_t k = 0; k + 5 < hosts.size(); k += 2) {
          demands.push_back({hosts[k], hosts[k + 5], 1e9});
        }
        fluid.emplace(*net, *oracle, demands);
        fluid->arm();
      }
      if (checks == nullptr) {
        out.meter.enter(Phase::kIdle);
        return;
      }

      out.meter.enter(Phase::kRun);
      {
        ScopedSpan span(trace, "run");
        run_sliced(
            trace, duration_, [&](TimePs t) { net->run_until(t); },
            [&] { return net->events_processed(); });
      }
      out.meter.enter(Phase::kHarvest);
      ScopedSpan harvest(trace, "harvest");
      out.packets = net->packets_delivered();
      Digest digest;
      digest.add(fluid->digest());
      digest.add(fluid->epochs());
      digest.add(net->packets_delivered());
      digest.add(net->events_processed());
      digest.add(latency_ps);
      out.digest = digest.value();
      checks->expect(out.packets > 0, "scale_hybrid: foreground delivered nothing");
      checks->expect(fluid->epochs() > 0, "scale_hybrid: fluid background never solved");

      Layers& layers = out.layers;
      const routing::HierOracle::Stats hs = oracle->stats();
      layers["topo.switches"] = static_cast<double>(topo->graph.switches().size());
      layers["topo.links"] = static_cast<double>(topo->graph.link_count());
      layers["routing.hier_hits"] = static_cast<double>(hs.hits);
      layers["routing.hier_misses"] = static_cast<double>(hs.misses);
      layers["routing.hier_entry_kib"] = static_cast<double>(hs.entry_bytes) / 1024.0;
      layers["engine.events"] = static_cast<double>(net->events_processed());
      layers["engine.packet_pool_slots"] =
          static_cast<double>(net->engine().packet_pool_capacity());
      layers["fluid.epochs"] = static_cast<double>(fluid->epochs());
      add_drops(layers, *net);
      if (trace != nullptr) {
        // Time one max-min re-solve on the background's demands, routed
        // the way FluidBackground routes them; not part of the rep.
        const double probe_start = wall_seconds();
        std::vector<flow::Flow> flows;
        for (const sim::FluidDemand& d : demands) {
          flow::Flow f;
          f.src = d.src;
          f.dst = d.dst;
          f.demand = d.rate_bps;
          routing::HierOracle::Path path = oracle->route(d.src, d.dst);
          flow::Route route;
          route.links = std::move(path.links);
          route.directions = std::move(path.directions);
          f.routes.push_back(std::move(route));
          flows.push_back(std::move(f));
        }
        flow::MaxMinSolver solver(topo->graph);
        std::vector<double> solves;
        for (int i = 0; i < 5; ++i) {
          const double t0 = wall_seconds();
          (void)solver.solve(flows);
          solves.push_back(wall_seconds() - t0);
        }
        const double solve_s = median(solves);
        layers["fluid.solve_ms"] = solve_s * 1e3;
        out.probe_s = wall_seconds() - probe_start;
        layers["fluid.share"] =
            out.meter.run_s > 0
                ? solve_s * static_cast<double>(fluid->epochs()) / out.meter.run_s
                : 0.0;
        layers["network.hops"] = static_cast<double>(hops.hops);
        layers["routing.slow_path_s"] = timed->seconds();
      }
    }
    // Tear-down (a 110k-switch graph) is part of the rep's wall time.
    out.meter.finish();
    if (trace != nullptr) {
      add_trace_layers(*trace, out, out.layers["engine.events"], out.layers["network.hops"],
                       out.layers);
    }
  }

  /// Four flows from distinct first-leaf hosts picked by the seed: two
  /// stay inside the first leaf ring, two cross the trunk to the second.
  std::vector<sim::CbrFlow> foreground(const std::vector<NodeId>& hosts,
                                       std::size_t leaf_hosts) const {
    std::vector<NodeId> first(hosts.begin(),
                              hosts.begin() + static_cast<std::ptrdiff_t>(leaf_hosts));
    const std::vector<NodeId> second(hosts.begin() + static_cast<std::ptrdiff_t>(leaf_hosts),
                                     hosts.end());
    Rng rng(seed_);
    rng.shuffle(first);
    std::vector<sim::CbrFlow> flows;
    for (std::size_t k = 0; k < 4; ++k) {
      sim::CbrFlow f;
      f.src = first[k];
      f.dst = k % 2 == 0 ? first[4 + k] : second[(k / 2) % second.size()];
      f.rate_bps = 2e9;
      flows.push_back(f);
    }
    return flows;
  }

  std::uint64_t seed_;
  std::string spec_text_;
  TimePs duration_;
};

// ---------------------------------------------------------------------------
// storm_sharded — ShardedStormRun's chaos storm on ring-of-rings:8x8@2
// through the conservative time-windowed engine at two shards.

class StormSharded final : public Workload {
 public:
  StormSharded(std::uint64_t seed, bool smoke) {
    params_.seed = seed;
    params_.composite = "ring-of-rings:8x8@2";
    params_.shards = 2;
    // Short reps: a rep waits at every window barrier for the slower of
    // two CPUs, so an uncontended rep is rare and the best rep needs
    // many tries.  Not shorter: below ~6k packets per host the peak RSS
    // settles at one of two levels 8 MiB apart from run to run (as the
    // allocator happens to reuse the shard threads' memory).
    params_.packets_per_host = smoke ? 200 : 6'000;
    params_.packet_gap = microseconds(1);
    params_.cuts = 4;
    params_.gray_links = 4;
    params_.flapping_links = 2;
    params_.storm_start = microseconds(100);
    params_.storm_end = smoke ? microseconds(400) : microseconds(11'900);
    params_.run_until = smoke ? microseconds(500) : microseconds(12'300);
  }

  int threads() const override { return params_.shards; }

  std::uint64_t reference(Checks& checks) override {
    // The serial (shards = 1) run is the determinism reference: the
    // sharded digests must match it at every seed.
    RepResult serial;
    run(1, nullptr, &checks, serial);
    serial_digest_ = serial.digest;
    return serial_digest_;
  }

  RepResult rep(Trace* trace, Checks& checks) override {
    RepResult out;
    run(params_.shards, trace, &checks, out);
    return out;
  }

  double setup_only() override {
    RepResult out;
    run(params_.shards, nullptr, nullptr, out);
    return out.meter.setup_s;
  }

  void trace_extras(const UntracedMedians& untraced, Layers& layers, Checks& checks) override {
    RepResult serial;
    run(1, nullptr, &checks, serial);
    checks.expect(serial.digest == serial_digest_, "storm_sharded: serial rerun differs");
    layers["shard.speedup"] = untraced.wall_s > 0 ? serial.meter.wall_s / untraced.wall_s : 0.0;
    layers["shard.cpu_per_wall"] = untraced.wall_s > 0 ? untraced.cpu_s / untraced.wall_s : 0.0;
    const double sharded_events = layers["engine.events"];
    const double serial_events = serial.layers["engine.events"];
    layers["shard.event_inflation"] = serial_events > 0 ? sharded_events / serial_events : 0.0;
    // The storm builds its topology and ECMP groups privately; time the
    // same construction calls on the same spec to size those layers.
    const double t0 = wall_seconds();
    const topo::BuiltTopology topo =
        topo::build_composite(*topo::CompositeSpec::parse(params_.composite));
    const double t1 = wall_seconds();
    const routing::EcmpRouting routing(topo.graph);
    layers["topo.build_s"] = t1 - t0;
    layers["routing.build_s"] = wall_seconds() - t1;
    layers["topo.switches"] = static_cast<double>(topo.graph.switches().size());
    layers["topo.links"] = static_cast<double>(topo.graph.link_count());
  }

 private:
  /// One rep at `shards`; a null `checks` stops after set-up.
  void run(int shards, Trace* trace, Checks* checks, RepResult& out) const {
    chaos::ShardedStormParams params = params_;
    params.shards = shards;
    std::uint64_t windows = 0;
    {
      ScopedSpan rep_span(trace, "rep");
      out.meter.enter(Phase::kSetup);
      std::optional<chaos::ShardedStormRun> storm;
      {
        ScopedSpan span(trace, "network.build");
        storm.emplace(params);
      }
      {
        ScopedSpan span(trace, "workload.arm");
        storm->arm();
      }
      if (checks == nullptr) {
        out.meter.enter(Phase::kIdle);
        return;
      }

      const TimePs lookahead = storm->plan().lookahead;
      out.meter.enter(Phase::kRun);
      {
        ScopedSpan span(trace, "run");
        run_sliced(trace, params.run_until, [&](TimePs t) {
          windows += window_count(storm->now(), t, lookahead);
          storm->run_to(t);
        });
      }
      out.meter.enter(Phase::kHarvest);
      ScopedSpan harvest(trace, "harvest");
      windows += window_count(storm->now(), params.run_until, lookahead);  // finish()'s tail
      const chaos::ShardedStormResult result = storm->finish();
      out.packets = result.deliveries;
      Digest digest;
      digest.add(result.delivery_digest);
      digest.add(result.drop_digest);
      digest.add(result.deliveries);
      digest.add(result.drops);
      out.digest = digest.value();
      checks->expect(result.deliveries > 0, "storm_sharded: nothing delivered");
      out.layers["engine.events"] = static_cast<double>(result.events);
      out.layers["shard.mail_posted"] = static_cast<double>(result.mail_posted);
      out.layers["shard.windows"] = static_cast<double>(windows);
    }
    out.meter.finish();
    if (trace != nullptr) {
      add_trace_layers(*trace, out, out.layers["engine.events"], 0.0, out.layers);
    }
  }

  /// Barriers ShardedSim takes for run_until(end) from `begin`: the
  /// strict windows of width `lookahead` plus the inclusive tail.
  static std::uint64_t window_count(TimePs begin, TimePs end, TimePs lookahead) {
    const TimePs span = end - begin;
    if (span <= 0) return 1;
    return static_cast<std::uint64_t>(span <= lookahead ? 1 : (span + lookahead - 1) / lookahead) +
           1;
  }

  chaos::ShardedStormParams params_;
  std::uint64_t serial_digest_ = 0;
};

// ---------------------------------------------------------------------------
// serve_overload — ServeLoop at 2x its goodput knee (bench_serve's
// base configuration), with binary capture into a null page sink.

/// bench_serve's knee: one 1 Gb/s lightpath carries 312.5k 400-byte
/// requests/s, and 95% of arrivals land on it.
constexpr double kHotFraction = 0.95;
constexpr double kKneeArrivals = 312'500.0 / kHotFraction;

class ServeOverload final : public Workload {
 public:
  ServeOverload(std::uint64_t seed, bool smoke) {
    config_.ring.switches = 4;
    config_.ring.hosts_per_switch = 2;
    config_.ring.mesh_rate = gigabits_per_second(1);
    config_.ring.links.host_rate = gigabits_per_second(1);
    config_.duration = smoke ? milliseconds(40) : seconds(2);
    config_.drain = milliseconds(8);
    config_.arrivals_per_sec = 2.0 * kKneeArrivals;
    config_.reply_size = bytes(100);
    config_.timeout = microseconds(1500);
    config_.max_retries = 2;
    config_.classes = {{"gold", 0.2, milliseconds(2)},
                       {"silver", 0.3, milliseconds(2)},
                       {"bronze", 0.5, milliseconds(2)}};
    config_.slo.window = microseconds(500);
    config_.slo.budget_p99_us = 1200.0;
    config_.slo.budget_p999_us = 1800.0;
    config_.shifts = {{0, 0, 1, kHotFraction}};
    config_.reconfigure_on_shift = false;
    config_.seed = seed;
  }

  std::uint64_t reference(Checks& checks) override { return rep(nullptr, checks).digest; }

  RepResult rep(Trace* trace, Checks& checks) override {
    RepResult out;
    run(trace, &checks, /*capture=*/true, out);
    return out;
  }

  double setup_only() override {
    RepResult out;
    run(nullptr, nullptr, true, out);
    return out.meter.setup_s;
  }

  void trace_extras(const UntracedMedians& untraced, Layers& layers, Checks& checks) override {
    RepResult off;
    run(nullptr, &checks, /*capture=*/false, off);
    const double records = layers["telemetry.records"];
    const double capture_s = untraced.wall_s - off.meter.wall_s;
    layers["telemetry.capture_s"] = capture_s;
    layers["telemetry.capture_ns_per_record"] = records > 0 ? 1e9 * capture_s / records : 0.0;
    // ServeLoop builds its ring and routing privately; time the same
    // construction calls on the same configuration to size those layers.
    const double t0 = wall_seconds();
    const topo::BuiltTopology topo = topo::quartz_ring(config_.ring);
    const double t1 = wall_seconds();
    const routing::EcmpRouting routing(topo.graph);
    const routing::PinnedDetourOracle oracle(routing, topo.quartz_rings);
    const routing::Fib fib(routing, oracle);
    layers["topo.build_s"] = t1 - t0;
    layers["routing.build_s"] = wall_seconds() - t1;
  }

 private:
  /// One rep; a null `checks` stops after set-up.
  void run(Trace* trace, Checks* checks, bool capture, RepResult& out) const {
    {
      ScopedSpan rep_span(trace, "rep");
      out.meter.enter(Phase::kSetup);
      telemetry::NullPageSink pages;
      std::optional<telemetry::BinaryStream> stream;
      std::optional<telemetry::BinaryStreamSink> stream_sink;
      std::optional<serve::ServeLoop> loop;
      HopCounter hops;
      {
        ScopedSpan span(trace, "network.build");
        loop.emplace(config_);
      }
      if (capture) {
        ScopedSpan span(trace, "telemetry.attach");
        stream.emplace(pages);
        stream_sink.emplace(*stream);
        loop->network().set_stream_sink(&*stream_sink);
      }
      if (trace != nullptr) loop->network().add_sink(&hops);
      {
        ScopedSpan span(trace, "workload.arm");
        loop->start();
      }
      if (checks == nullptr) {
        out.meter.enter(Phase::kIdle);
        return;
      }

      out.meter.enter(Phase::kRun);
      {
        ScopedSpan span(trace, "run");
        run_sliced(
            trace, config_.duration + config_.drain, [&](TimePs t) { loop->run_to(t); },
            [&] { return loop->network().events_processed(); });
      }
      out.meter.enter(Phase::kHarvest);
      ScopedSpan harvest(trace, "harvest");
      const serve::ServeReport report = loop->finish();
      if (stream) stream->finish();
      const sim::Network& net = loop->network();
      out.packets = net.packets_delivered();
      Digest digest;
      for (std::uint64_t v :
           {report.arrivals, report.admitted, report.shed_class, report.shed_limit,
            report.completed, report.in_deadline, report.late, report.failed, report.retries,
            report.budget_denied, report.hopeless_dropped, report.outstanding_at_end,
            report.windows_closed, report.windows_breached, net.packets_delivered(),
            net.packets_dropped()}) {
        digest.add(v);
      }
      for (double v : {report.goodput_per_sec, report.p50_us, report.p99_us, report.p999_us}) {
        digest.add(v);
      }
      digest.add(static_cast<std::uint64_t>(report.final_limit));
      digest.add(static_cast<std::uint64_t>(report.conservation_ok));
      out.digest = digest.value();
      checks->expect(report.conservation_ok, "serve_overload: request conservation violated");
      checks->expect(report.arrivals > 0, "serve_overload: no arrivals");

      Layers& layers = out.layers;
      layers["topo.switches"] = static_cast<double>(loop->topology().graph.switches().size());
      layers["topo.links"] = static_cast<double>(loop->topology().graph.link_count());
      layers["engine.events"] = static_cast<double>(net.events_processed());
      layers["engine.packet_pool_slots"] =
          static_cast<double>(net.engine().packet_pool_capacity());
      add_drops(layers, net);
      if (stream) {
        layers["telemetry.records"] = static_cast<double>(stream->records());
        layers["telemetry.bytes_per_record"] =
            stream->records() > 0
                ? static_cast<double>(pages.bytes()) / static_cast<double>(stream->records())
                : 0.0;
        layers["telemetry.emergency_pages"] = static_cast<double>(stream->emergency_pages());
      }
      layers["serve.arrivals"] = static_cast<double>(report.arrivals);
      layers["serve.admitted"] = static_cast<double>(report.admitted);
      layers["serve.shed"] = static_cast<double>(report.shed_class + report.shed_limit);
      layers["serve.retries"] = static_cast<double>(report.retries);
      layers["network.hops"] = static_cast<double>(hops.hops);
    }
    out.meter.finish();
    Layers& layers = out.layers;
    layers["serve.ns_per_arrival"] =
        layers["serve.arrivals"] > 0 ? 1e9 * out.meter.run_s / layers["serve.arrivals"] : 0.0;
    if (trace != nullptr) {
      add_trace_layers(*trace, out, layers["engine.events"], layers["network.hops"], layers);
    }
  }

  serve::ServeConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  if (name == "fig18_local") return std::make_unique<Fig18Local>(seed, smoke);
  if (name == "scale_hybrid") return std::make_unique<ScaleHybrid>(seed, smoke);
  if (name == "storm_sharded") return std::make_unique<StormSharded>(seed, smoke);
  if (name == "serve_overload") return std::make_unique<ServeOverload>(seed, smoke);
  return nullptr;
}

}  // namespace quartz::bench_suite
