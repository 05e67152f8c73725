#include "chaos/sharded_storm.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "optical/budget.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fluid.hpp"
#include "sim/network.hpp"
#include "sim/probes.hpp"
#include "sim/sweep.hpp"
#include "snapshot/io.hpp"
#include "topo/composite.hpp"

namespace quartz::chaos {
namespace {

constexpr std::uint32_t kTrafficTag = 1;

/// The fixed-delay FailureView learns of each change this late (ten
/// default probe intervals: BFD-scale detection).
constexpr TimePs kFixedDetectionDelay = microseconds(50);
/// Tail latency may exceed the pre-storm baseline by this fraction
/// before the recovery invariant fails.
constexpr double kLatencyTolerance = 0.25;

topo::BuiltTopology build_storm_topo(const ShardedStormParams& params) {
  if (params.composite.empty()) {
    QUARTZ_REQUIRE(params.flat_switches >= 4, "storm fabric needs at least four switches");
    topo::QuartzRingParams ring;
    ring.switches = params.flat_switches;
    ring.hosts_per_switch = params.flat_hosts_per_switch;
    return topo::quartz_ring(ring);
  }
  std::string error;
  const auto spec = topo::CompositeSpec::parse(params.composite, &error);
  QUARTZ_REQUIRE(spec.has_value(), "bad composite spec '" + params.composite + "': " + error);
  return topo::build_composite(*spec);
}

/// Fault targets: every switch-to-switch link (mesh lightpaths and
/// trunks alike — cutting a cross-shard trunk is exactly the case the
/// determinism tests must cover).
std::vector<topo::LinkId> fault_mesh(const topo::BuiltTopology& topo) {
  std::vector<topo::LinkId> out;
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) out.push_back(id);
  }
  return out;
}

/// Every fault is repaired strictly before this point.
TimePs quiesce_at(const ShardedStormParams& params) {
  return params.storm_end + (params.run_until - params.storm_end) / 2;
}

sim::SimConfig storm_sim_config(const ShardedStormParams& params) {
  sim::SimConfig config;
  config.corruption_seed = params.seed ^ 0x434F5252ull;  // "CORR"
  if (params.mode == DetectionMode::kFixedDelay) {
    config.failure_detection_delay = kFixedDetectionDelay;
  }
  return config;
}

routing::HealthMonitorConfig storm_monitor_config() {
  // Microsecond storm timescales: tighten the hold-downs so damped
  // recoveries resolve inside the run.
  routing::HealthMonitorConfig config;
  config.hold_down = microseconds(20);
  config.hold_down_cap = microseconds(200);
  config.flap_memory = microseconds(500);
  return config;
}

sim::ProbePlane::Options storm_probe_options(const ShardedStormParams& params) {
  sim::ProbePlane::Options options;
  options.interval = params.probe_interval;
  options.seed = params.seed ^ 0x50524FBEull;
  return options;
}

TimePs uniform_time(Rng& rng, TimePs lo, TimePs hi) {
  return lo + static_cast<TimePs>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

/// Gray-failure drop probability from the optical plant: erode the
/// ring's worst-case margin down to `residual_db` (negative = below
/// sensitivity) and convert margin → Q → BER → per-packet loss.
double gray_drop_probability(std::size_t ring_size, double residual_db, Bits packet_bits) {
  optical::RingBudgetParams budget;
  budget.ring_size = ring_size;
  const optical::AmplifierPlan plan = optical::plan_ring_amplifiers(budget);
  QUARTZ_CHECK(plan.feasible, "storm fabric has no feasible amplifier plan");
  const double margin = optical::worst_case_margin_db(budget, plan);
  const double extra = std::max(0.0, margin - residual_db);
  return optical::degraded_drop_probability(budget, plan, extra,
                                            static_cast<std::uint64_t>(packet_bits));
}

}  // namespace

/// One shard of the storm: full control plane (oracle, monitor,
/// probes, fault scheduler, fluid background) over the whole graph,
/// workload chains for the hosts it owns, and a record stream feeding
/// the merged digest (deliveries via the task handler, drops via the
/// shard's own on_drop sink).
class ShardedStormRun::StormShard final : public sim::Shard,
                                          public sim::TimerHandler,
                                          private sim::TelemetrySink {
 public:
  struct Rec {
    TimePs when = 0;
    std::uint64_t id = 0;
    std::uint64_t aux = 0;   ///< latency (delivery) or DropReason (drop)
    std::uint8_t kind = 0;   ///< 0 = delivery, 1 = drop
    std::uint32_t hops = 0;  ///< switches crossed (deliveries; rides the padding)
  };
  static_assert(sizeof(Rec) == 32, "the hop count must ride Rec's padding");

  StormShard(const ShardedStormParams& params, const topo::BuiltTopology& topo,
             const std::vector<topo::LinkId>& mesh, const routing::EcmpRouting& routing,
             const sim::ShardContext& ctx)
      : params_(params),
        topo_(topo),
        mesh_(mesh),
        oracle_(routing),
        monitor_(topo.graph.link_count(), storm_monitor_config()),
        net_(topo, oracle_, storm_sim_config(params)),
        faults_(net_) {
    net_.bind_shard(ctx.binding);
    if (params.mode == DetectionMode::kHealthMonitor) {
      probes_ = std::make_unique<sim::ProbePlane>(net_, monitor_, storm_probe_options(params));
      oracle_.attach_failure_view(&monitor_.view());
      oracle_.attach_loss_view(&monitor_);
    } else {
      oracle_.attach_failure_view(&net_.failure_view());
    }
    task_ = net_.new_task([this](const sim::Packet& p, TimePs latency) {
      records_.push_back({net_.now(), p.id, static_cast<std::uint64_t>(latency), 0,
                          static_cast<std::uint32_t>(p.hops)});
    });
    net_.add_sink(this);
    if (params.hybrid_background) {
      // Host i paired with its mirror: a pure function of the fabric,
      // so every shard and every restored run builds the same demands.
      const auto& hosts = topo.hosts;
      std::vector<sim::FluidDemand> demands;
      for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
        demands.push_back({hosts[i], hosts[hosts.size() - 1 - i], 2e9});
      }
      sim::FluidParams fluid_params;
      fluid_params.mean_packet = params.packet_size;
      fluid_ = std::make_unique<sim::FluidBackground>(net_, oracle_, std::move(demands),
                                                      fluid_params);
    }
  }

  sim::Network& network() override { return net_; }
  const std::vector<Rec>& records() const { return records_; }
  int task() const { return task_; }

  void arm() {
    if (probes_ != nullptr) probes_->start(mesh_);
    if (fluid_ != nullptr) fluid_->arm();

    // Workload: one self-chained timer per OWNED host; schedule and
    // destinations are PRF-derived, so every shard count sees the
    // identical global traffic script.
    const auto& hosts = topo_.hosts;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!net_.owns_node(hosts[i])) continue;
      net_.schedule_timer(chain_start(i), {this, kTrafficTag, i, 0});
    }

    // Storm script, replicated: the same seeded RNG consumed in the
    // same order on every shard yields identical fault timelines with
    // zero cross-shard coordination.
    Rng storm_rng(params_.seed ^ 0x53544F52ull);  // "STOR"
    const TimePs quiesce = quiesce_at(params_);
    auto window = [&](TimePs& fail_at, TimePs& repair_at) {
      fail_at = uniform_time(storm_rng, params_.storm_start, params_.storm_end);
      repair_at = uniform_time(storm_rng, fail_at + 1, quiesce);
    };
    for (int c = 0; c < params_.cuts; ++c) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      TimePs fail_at = 0, repair_at = 0;
      window(fail_at, repair_at);
      faults_.schedule_cut(fail_at, {victim}, repair_at);
    }
    for (int g = 0; g < params_.gray_links; ++g) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      TimePs fail_at = 0, repair_at = 0;
      window(fail_at, repair_at);
      faults_.schedule_transceiver_aging(fail_at, victim, params_.gray_loss, repair_at);
    }
    for (int f = 0; f < params_.flapping_links; ++f) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      const TimePs down = params_.probe_interval * 3;
      const TimePs up = params_.probe_interval * 3;
      const int cycles = static_cast<int>(
          std::min<TimePs>(6, (params_.storm_end - params_.storm_start) / (down + up)));
      if (cycles > 0) faults_.schedule_flapping(params_.storm_start, victim, down, up, cycles);
    }
    for (int a = 0; a < params_.amplifier_failures; ++a) {
      const std::size_t ring_size = topo_.quartz_rings.front().size();
      const topo::FiberCut span{0, static_cast<int>(storm_rng.next_below(ring_size))};
      const double residual = -2.2 - storm_rng.next_double();  // margin in [-3.2, -2.2] dB
      const double p = gray_drop_probability(ring_size, residual, params_.packet_size);
      TimePs fail_at = 0, repair_at = 0;
      window(fail_at, repair_at);
      faults_.schedule_amplifier_failure(fail_at, span, p, repair_at);
    }
    if (params_.poisson_churn) {
      const double window_hours =
          to_seconds(params_.storm_end - params_.storm_start) / 3600.0;
      sim::PoissonFaultParams churn;
      churn.failures_per_link_per_hour = 2.0 / window_hours;
      churn.mean_repair_hours = window_hours / 256.0;
      churn.start = params_.storm_start;
      churn.stop = params_.storm_end;
      faults_.run_poisson(churn, mesh_, Rng(params_.seed ^ 0x504F4953ull));  // "POIS"
    }
  }

  /// Fault, detector and fluid counters of this control-plane replica.
  void count_control_plane(ShardedStormResult& result) const {
    result.cuts = faults_.cuts();
    result.repairs = faults_.repairs();
    result.degradations = faults_.degradations();
    result.restorations = faults_.restorations();
    result.probes = monitor_.probes();
    result.missed_probes = monitor_.missed_probes();
    result.deaths = monitor_.deaths();
    result.revivals = monitor_.revivals();
    result.damped_recoveries = monitor_.damped_recoveries();
    if (fluid_ != nullptr) {
      result.fluid_epochs = fluid_->epochs();
      result.fluid_digest = fluid_->digest();
    }
  }

  /// Invariant 3 on this replica: every link is physically healthy and
  /// the detector agrees.  Appends one violation per disagreeing link,
  /// unless an identical replica already reported it.
  bool converged(std::vector<std::string>& violations) const {
    bool ok = true;
    auto violate = [&](topo::LinkId link, const std::string& what) {
      ok = false;
      std::string line = "convergence: link " + std::to_string(link) + " " + what;
      if (std::find(violations.begin(), violations.end(), line) == violations.end()) {
        violations.push_back(std::move(line));
      }
    };
    for (const topo::LinkId link : topo_.graph.link_ids()) {
      const routing::LinkHealth physical = net_.link_health(link);
      if (physical != routing::LinkHealth::kHealthy) {
        violate(link, std::string("still physically ") + routing::link_health_name(physical) +
                          " after quiescence");
      } else if (probes_ != nullptr && monitor_.health(link) != physical) {
        violate(link, std::string("seen as ") +
                          routing::link_health_name(monitor_.health(link)) +
                          ", physically healthy");
      } else if (probes_ == nullptr && net_.failure_view().is_dead(link)) {
        violate(link, "still dead in the fixed-delay view");
      }
    }
    return ok;
  }

  void save(snapshot::Writer& w) const {
    const sim::HandlerMap handlers = handler_map();
    w.begin_chunk(snapshot::chunk_id("SREC"));
    w.put_u64(records_.size());
    for (const Rec& rec : records_) {
      w.put_i64(rec.when);
      w.put_u64(rec.id);
      w.put_u64(rec.aux);
      w.put_u8(rec.kind);
      w.put_u32(rec.hops);
    }
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("FLTS"));
    faults_.save(w);
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("MONI"));
    monitor_.save(w);
    w.end_chunk();
    if (probes_ != nullptr) {
      w.begin_chunk(snapshot::chunk_id("PRBS"));
      probes_->save(w);
      w.end_chunk();
    }
    if (fluid_ != nullptr) {
      w.begin_chunk(snapshot::chunk_id("FLUI"));
      fluid_->save(w);
      w.end_chunk();
    }
    // The network chunk (the engine with every pending event) goes
    // last: components first, then the queue that points back at them.
    w.begin_chunk(snapshot::chunk_id("NETW"));
    net_.save(w, handlers);
    w.end_chunk();
  }

  void restore(snapshot::Reader& r) {
    const sim::HandlerMap handlers = handler_map();
    r.open_chunk(snapshot::chunk_id("SREC"));
    const std::uint64_t count = r.get_count(3 * sizeof(std::uint64_t) + 1 + sizeof(std::uint32_t));
    records_.clear();
    records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Rec rec;
      rec.when = r.get_i64();
      rec.id = r.get_u64();
      rec.aux = r.get_u64();
      rec.kind = r.get_u8();
      rec.hops = r.get_u32();
      records_.push_back(rec);
    }
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("FLTS"));
    faults_.restore(r);
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("MONI"));
    monitor_.restore(r);
    r.close_chunk();
    if (probes_ != nullptr) {
      r.open_chunk(snapshot::chunk_id("PRBS"));
      probes_->restore(r);
      r.close_chunk();
    }
    if (fluid_ != nullptr) {
      r.open_chunk(snapshot::chunk_id("FLUI"));
      fluid_->restore(r);
      r.close_chunk();
    }
    r.open_chunk(snapshot::chunk_id("NETW"));
    net_.restore(r, handlers);
    r.close_chunk();
  }

 private:
  TimePs chain_start(std::size_t host_index) const {
    return static_cast<TimePs>(prf(params_.seed, 0x574B4C44ull, host_index, 0) %
                               static_cast<std::uint64_t>(params_.packet_gap));
  }

  void on_timer(const sim::TimerEvent& event) override {
    QUARTZ_CHECK(event.tag == kTrafficTag, "storm shard owns only the traffic timer");
    const std::uint64_t i = event.a;  // host index in topo_.hosts
    const std::uint64_t k = event.b;  // packet number on this host's chain
    const auto& hosts = topo_.hosts;
    const topo::NodeId src = hosts[static_cast<std::size_t>(i)];
    std::uint64_t pick = prf(params_.seed, 0x44535421ull, i, k) % (hosts.size() - 1);
    if (pick >= i) ++pick;  // skip self
    const topo::NodeId dst = hosts[static_cast<std::size_t>(pick)];
    net_.send(src, dst, params_.packet_size, task_, prf(params_.seed, 0x464C4F57ull, i, k));
    if (k + 1 < static_cast<std::uint64_t>(params_.packets_per_host)) {
      net_.schedule_timer(
          chain_start(static_cast<std::size_t>(i)) +
              params_.packet_gap * static_cast<TimePs>(k + 1),
          {this, kTrafficTag, i, k + 1});
    }
  }

  void on_drop(const sim::Packet& p, sim::DropReason reason, TimePs when) override {
    records_.push_back({when, p.id, static_cast<std::uint64_t>(reason), 1, 0});
  }

  /// Handler registration order is part of the snapshot contract: the
  /// engine serializes handler pointers as indices into this map, so
  /// save and restore must build it identically (a pure function of
  /// the params).
  sim::HandlerMap handler_map() const {
    sim::HandlerMap handlers;
    if (probes_ != nullptr) handlers.timers.push_back(probes_.get());
    handlers.timers.push_back(const_cast<sim::FaultScheduler*>(&faults_));
    handlers.timers.push_back(const_cast<StormShard*>(this));
    if (fluid_ != nullptr) handlers.timers.push_back(fluid_.get());
    return handlers;
  }

  const ShardedStormParams& params_;
  const topo::BuiltTopology& topo_;
  const std::vector<topo::LinkId>& mesh_;
  routing::EcmpOracle oracle_;
  routing::HealthMonitor monitor_;
  sim::Network net_;
  /// Null in fixed-delay mode (no probe-driven detector).
  std::unique_ptr<sim::ProbePlane> probes_;
  sim::FaultScheduler faults_;
  /// Null unless params.hybrid_background.  Declared after net_ so its
  /// bias vector detaches before the network dies.
  std::unique_ptr<sim::FluidBackground> fluid_;
  int task_ = -1;
  std::vector<Rec> records_;
};

ShardedStormRun::ShardedStormRun(const ShardedStormParams& params)
    : params_(params), topo_(build_storm_topo(params)), mesh_(fault_mesh(topo_)),
      routing_(topo_.graph) {
  QUARTZ_REQUIRE(params_.packets_per_host > 0 && params_.packet_gap > 0, "storm needs traffic");
  // A degenerate storm window (start == end) is a fault-free run — the
  // CLIs use it for pure-workload sharded execution.
  const bool has_faults = params_.cuts > 0 || params_.gray_links > 0 ||
                          params_.flapping_links > 0 || params_.amplifier_failures > 0 ||
                          params_.poisson_churn;
  QUARTZ_REQUIRE(0 <= params_.storm_start && params_.storm_start <= params_.storm_end &&
                     params_.storm_end < params_.run_until &&
                     (!has_faults || params_.storm_start < params_.storm_end),
                 "storm phases must be ordered: start < end < run_until");
  QUARTZ_CHECK(!mesh_.empty(), "storm fabric has no fault targets");
  QUARTZ_REQUIRE(params_.amplifier_failures == 0 || !topo_.quartz_rings.empty(),
                 "amplifier failures need a fabric with a Quartz ring");
  sim_ = std::make_unique<sim::ShardedSim>(
      sim::plan_partition(topo_, params_.shards),
      [this](const sim::ShardContext& ctx) -> std::unique_ptr<sim::Shard> {
        return std::make_unique<StormShard>(params_, topo_, mesh_, routing_, ctx);
      });
}

ShardedStormRun::~ShardedStormRun() = default;

const sim::PartitionPlan& ShardedStormRun::plan() const { return sim_->plan(); }

TimePs ShardedStormRun::now() const { return sim_->now(); }

void ShardedStormRun::arm() {
  QUARTZ_REQUIRE(!armed_, "a sharded storm arms exactly once (restore replaces arm)");
  armed_ = true;
  sim_->visit([](int, sim::Shard& shard) { static_cast<StormShard&>(shard).arm(); });
}

void ShardedStormRun::run_to(TimePs end) {
  QUARTZ_REQUIRE(armed_, "arm (or restore) the sharded storm before driving it");
  sim_->run_until(end);
}

void ShardedStormRun::save(snapshot::Writer& w) {
  QUARTZ_REQUIRE(armed_, "save requires an armed sharded storm");
  w.begin_chunk(snapshot::chunk_id("SSPR"));
  w.put_u64(params_.seed);
  w.put_string(params_.composite);
  w.put_i32(params_.shards);
  w.put_i32(params_.packets_per_host);
  w.put_i64(params_.packet_gap);
  w.put_i64(params_.run_until);
  w.put_u8(static_cast<std::uint8_t>(params_.mode));
  w.put_u8(params_.hybrid_background ? 1 : 0);
  w.end_chunk();
  sim_->save_layout(w);
  sim_->visit([&w](int, sim::Shard& shard) { static_cast<StormShard&>(shard).save(w); });
}

void ShardedStormRun::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(!armed_, "restore requires a freshly constructed (never armed) sharded storm");
  armed_ = true;
  r.open_chunk(snapshot::chunk_id("SSPR"));
  QUARTZ_REQUIRE(r.get_u64() == params_.seed && r.get_string() == params_.composite,
                 "snapshot was taken from a different sharded storm");
  const int shards = r.get_i32();
  QUARTZ_REQUIRE(shards == params_.shards,
                 "snapshot shard count mismatch: saved at shards=" + std::to_string(shards) +
                     ", restoring at shards=" + std::to_string(params_.shards));
  QUARTZ_REQUIRE(r.get_i32() == params_.packets_per_host && r.get_i64() == params_.packet_gap &&
                     r.get_i64() == params_.run_until &&
                     r.get_u8() == static_cast<std::uint8_t>(params_.mode) &&
                     r.get_u8() == (params_.hybrid_background ? 1 : 0),
                 "snapshot was taken from a different sharded storm");
  r.close_chunk();
  sim_->restore_layout(r);
  sim_->visit([&r](int, sim::Shard& shard) { static_cast<StormShard&>(shard).restore(r); });
}

ShardedStormResult ShardedStormRun::finish() {
  run_to(params_.run_until);

  ShardedStormResult result;
  result.seed = params_.seed;
  result.shards = params_.shards;
  result.lookahead = sim_->plan().lookahead;
  result.strategy = sim_->plan().strategy;
  result.hop_bound = static_cast<int>(topo_.graph.switches().size());

  // The merge reads each shard's records in place: after visit() the
  // workers sit idle until the next command, and visit's handshake
  // orders every record write before the reads below.
  std::vector<const std::vector<StormShard::Rec>*> streams(
      static_cast<std::size_t>(params_.shards));
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t task_drops = 0;
  result.invariants.converged = true;
  sim_->visit([&](int shard, sim::Shard& s) {
    StormShard& storm = static_cast<StormShard&>(s);
    streams[static_cast<std::size_t>(shard)] = &storm.records();
    const sim::Network& net = storm.network();
    result.events += net.events_processed();
    result.mail_posted += net.mail_posted();
    result.sent += net.packets_sent();
    delivered += net.packets_delivered();
    dropped += net.packets_dropped();
    task_drops += net.task_drops(storm.task());
    if (shard == 0) storm.count_control_plane(result);
    if (!storm.converged(result.violations)) result.invariants.converged = false;
  });

  // K-way merge by the engine's own total order, (time, stamp, kind):
  // each per-shard stream is already sorted under it (records are
  // appended in execution order), so the merged sequence — and the
  // digests below — is identical at every shard count.
  auto key_less = [](const StormShard::Rec& a, const StormShard::Rec& b) {
    if (a.when != b.when) return a.when < b.when;
    const std::uint64_t sa = sim::shard_stamp(a.id);
    const std::uint64_t sb = sim::shard_stamp(b.id);
    if (sa != sb) return sa < sb;
    return a.kind < b.kind;
  };
  const TimePs quiesce = quiesce_at(params_);
  const TimePs traffic_end = params_.packet_gap * params_.packets_per_host;
  const TimePs tail_start = (quiesce + traffic_end) / 2;
  RunningStats baseline_us;
  RunningStats tail_us;
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<double> latencies;
  latencies.reserve(delivered);
  result.delivery_digest = kFnvOffsetBasis;
  result.drop_digest = kFnvOffsetBasis;
  for (;;) {
    int best = -1;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] >= streams[s]->size()) continue;
      if (best < 0 ||
          key_less((*streams[s])[cursor[s]], (*streams[static_cast<std::size_t>(best)])
                                                 [cursor[static_cast<std::size_t>(best)]])) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    const StormShard::Rec& rec =
        (*streams[static_cast<std::size_t>(best)])[cursor[static_cast<std::size_t>(best)]++];
    std::uint64_t& digest = rec.kind == 0 ? result.delivery_digest : result.drop_digest;
    digest = fnv1a_u64(digest, rec.id);
    digest = fnv1a_u64(digest, static_cast<std::uint64_t>(rec.when));
    digest = fnv1a_u64(digest, rec.aux);
    if (rec.kind == 0) {
      ++result.deliveries;
      latencies.push_back(static_cast<double>(rec.aux));
      result.max_hops = std::max(result.max_hops, static_cast<int>(rec.hops));
      const double latency_us = to_microseconds(static_cast<TimePs>(rec.aux));
      if (rec.when < params_.storm_start) baseline_us.add(latency_us);
      if (traffic_end > quiesce && rec.when >= tail_start) tail_us.add(latency_us);
    } else {
      ++result.drops;
    }
  }
  if (!latencies.empty()) {
    // Sum in merge order before the selection reorders the vector.
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    result.mean_latency_us = sum / static_cast<double>(latencies.size()) * 1e-6;
    const auto p99 = latencies.begin() + static_cast<std::ptrdiff_t>(
                                             0.99 * static_cast<double>(latencies.size() - 1));
    std::nth_element(latencies.begin(), p99, latencies.end());
    result.p99_latency_us = *p99 * 1e-6;
  }

  // Invariant 1: conservation, cross-checked against the networks.
  const auto expected_sent =
      static_cast<std::uint64_t>(topo_.hosts.size()) *
      static_cast<std::uint64_t>(params_.packets_per_host);
  result.invariants.conservation =
      result.sent == expected_sent && delivered + dropped == result.sent &&
      result.deliveries == delivered && result.drops == dropped && task_drops == dropped;
  if (!result.invariants.conservation) {
    std::ostringstream os;
    os << "conservation: sent=" << result.sent << " (expected " << expected_sent
       << ") delivered=" << delivered << " dropped=" << dropped << " (records "
       << result.deliveries << "/" << result.drops << ", task drops " << task_drops << ")";
    result.violations.push_back(os.str());
  }

  // Invariant 2: hop bound on every delivered packet.
  result.invariants.hop_bound = result.max_hops <= result.hop_bound;
  if (!result.invariants.hop_bound) {
    result.violations.push_back("hop bound: a packet crossed " + std::to_string(result.max_hops) +
                                " switches (bound " + std::to_string(result.hop_bound) + ")");
  }

  // Invariant 4: post-storm latency back to the pre-storm baseline.
  result.baseline_mean_us = baseline_us.empty() ? 0.0 : baseline_us.mean();
  result.tail_mean_us = tail_us.empty() ? 0.0 : tail_us.mean();
  result.invariants.latency_recovered =
      !baseline_us.empty() && !tail_us.empty() &&
      result.tail_mean_us <= result.baseline_mean_us * (1.0 + kLatencyTolerance);
  if (!result.invariants.latency_recovered) {
    std::ostringstream os;
    os << "latency recovery: baseline " << result.baseline_mean_us << " us (n="
       << baseline_us.count() << "), tail " << result.tail_mean_us << " us (n="
       << tail_us.count() << ")";
    if (traffic_end <= quiesce) os << "; traffic ends before quiescence, no post-storm tail";
    result.violations.push_back(os.str());
  }
  return result;
}

std::string ShardedStormResult::summary() const {
  std::ostringstream os;
  os << "storm seed=" << seed << " shards=" << shards << " sent=" << sent
     << " delivered=" << deliveries << " drops=" << drops << " cuts=" << cuts
     << " degradations=" << degradations << " probes=" << probes << " deaths=" << deaths
     << " damped=" << damped_recoveries << " max_hops=" << max_hops << "/" << hop_bound
     << " latency_us=" << baseline_mean_us << "->" << tail_mean_us;
  if (fluid_epochs > 0) os << " fluid_epochs=" << fluid_epochs;
  os << (passed() ? " PASS" : " FAIL");
  for (const std::string& v : violations) os << "\n  violated: " << v;
  return os.str();
}

ShardedStormResult run_storm(const ShardedStormParams& params, bool restore_rehearsal) {
  ShardedStormRun run(params);
  run.arm();
  if (!restore_rehearsal) return run.finish();

  // Rehearsal: drive to mid-storm, snapshot through an in-memory round
  // trip (same validation path as a file), restore into a fresh run
  // and finish there.
  run.run_to(params.storm_start + (params.storm_end - params.storm_start) / 2);
  snapshot::Writer writer;
  run.save(writer);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(writer, 0), &error);
  QUARTZ_CHECK(reader.has_value(), "mid-storm snapshot failed validation: " + error);
  ShardedStormRun resumed(params);
  resumed.restore(*reader);
  return resumed.finish();
}

std::vector<ShardedStormResult> run_sweep(const ShardedStormParams& base, int storms, int jobs,
                                          bool restore_rehearsal) {
  QUARTZ_REQUIRE(storms > 0, "a sweep needs at least one storm");
  // Seeds stay base.seed + i (not SweepRunner's derived seeds) so a
  // nightly failure reproduces with the exact seed it printed.
  std::vector<ShardedStormParams> points;
  points.reserve(static_cast<std::size_t>(storms));
  for (int i = 0; i < storms; ++i) {
    ShardedStormParams params = base;
    params.seed = base.seed + static_cast<std::uint64_t>(i);
    points.push_back(params);
  }
  sim::SweepRunner runner(sim::SweepOptions{jobs, base.seed});
  return runner.run(points, [restore_rehearsal](const ShardedStormParams& params) {
    return run_storm(params, restore_rehearsal);
  });
}

ShardedStormParams every_fault_storm(std::uint64_t seed, TimePs storm_length) {
  ShardedStormParams params;
  params.seed = seed;
  params.composite.clear();  // a flat ring: the amplifier failure spans its ring 0
  params.flat_switches = 8;
  params.cuts = 3;
  params.gray_links = 2;
  params.flapping_links = 1;
  params.amplifier_failures = 1;
  params.poisson_churn = true;
  params.storm_start = storm_length / 2;
  params.storm_end = params.storm_start + storm_length;
  params.run_until = params.storm_end + storm_length * 5 / 2;
  // Traffic runs almost to the horizon, so the post-quiescence tail the
  // latency-recovery invariant judges holds several hundred packets.
  params.packet_gap = microseconds(10);
  params.packets_per_host =
      static_cast<int>((params.run_until - storm_length / 4) / params.packet_gap);
  return params;
}

}  // namespace quartz::chaos
