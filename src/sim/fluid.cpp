#include "sim/fluid.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {

FluidBackground::FluidBackground(Network& net, const routing::RoutingOracle& oracle,
                                 std::vector<FluidDemand> demands, FluidParams params)
    : net_(&net),
      oracle_(&oracle),
      demands_(std::move(demands)),
      params_(params),
      solver_(net.graph()),
      bias_(net.graph().link_count() * 2) {
  QUARTZ_REQUIRE(params_.epoch > 0, "fluid epoch must be positive");
  QUARTZ_REQUIRE(params_.max_utilization > 0.0 && params_.max_utilization < 1.0,
                 "max_utilization must be in (0, 1)");
  for (const FluidDemand& d : demands_) {
    QUARTZ_REQUIRE(net.graph().is_host(d.src) && net.graph().is_host(d.dst),
                   "fluid demands run host to host");
    QUARTZ_REQUIRE(d.src != d.dst, "fluid demand endpoints must differ");
    QUARTZ_REQUIRE(d.rate_bps > 0.0, "fluid demand rate must be positive");
  }
  net_->set_queue_bias(&bias_);
}

FluidBackground::~FluidBackground() {
  if (net_->queue_bias() == &bias_) net_->set_queue_bias(nullptr);
}

void FluidBackground::arm() {
  TimerEvent event;
  event.handler = this;
  event.tag = 0;
  net_->schedule_timer(params_.start, event);
}

void FluidBackground::on_timer(const TimerEvent& event) {
  (void)event;
  solve_epoch();
  const TimePs next = net_->now() + params_.epoch;
  if (params_.stop != 0 && next > params_.stop) return;
  TimerEvent chain;
  chain.handler = this;
  chain.tag = 0;
  net_->schedule_timer(next, chain);
}

void FluidBackground::extract_routes() {
  const topo::Graph& g = net_->graph();
  flows_.clear();
  flows_.reserve(demands_.size());
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    const FluidDemand& d = demands_[i];
    flow::Flow f;
    f.src = d.src;
    f.dst = d.dst;
    f.demand = d.rate_bps;
    flow::Route route;
    routing::FlowKey key;
    key.src = d.src;
    key.dst = d.dst;
    key.flow_hash = routing::mix_hash(static_cast<std::uint64_t>(i) + 1);
    topo::NodeId at = d.src;
    // Generous guard: background routes are level-bounded on composed
    // fabrics and BFS-short everywhere else.
    for (int hop = 0; hop < 64 && at != d.dst; ++hop) {
      const topo::LinkId link = oracle_->next_link(at, key);
      QUARTZ_CHECK(link != topo::kInvalidLink, "fluid route hit a dead end");
      const topo::Link& l = g.link(link);
      route.links.push_back(link);
      route.directions.push_back(l.a == at ? 0 : 1);
      at = l.other(at);
    }
    QUARTZ_CHECK(at == d.dst, "fluid route did not converge");
    f.routes.push_back(std::move(route));
    flows_.push_back(std::move(f));
  }
  routes_epoch_ = oracle_->state_epoch();
  routes_valid_ = true;
}

void FluidBackground::solve_epoch() {
  if (!routes_valid_ || oracle_->state_epoch() != routes_epoch_) extract_routes();

  const flow::MaxMinResult& result = solver_.solve(flows_);
  aggregate_ = result.aggregate;

  // Clear the previous epoch's footprint, then write the new biases.
  for (const std::size_t line : biased_lines_) bias_[line] = 0;
  biased_lines_.clear();

  const topo::Graph& g = net_->graph();
  for (const std::size_t line : solver_.used_lines()) {
    const double used = result.line_used[line];
    if (used <= 0.0) continue;
    const BitsPerSecond rate = g.rate(static_cast<topo::LinkId>(line / 2));
    const double rho = std::min(used / static_cast<double>(rate), params_.max_utilization);
    const TimePs serialization = transmission_time(params_.mean_packet, rate);
    const double wait = rho / (2.0 * (1.0 - rho)) * static_cast<double>(serialization);
    const TimePs bias =
        std::min<TimePs>(static_cast<TimePs>(std::llround(wait)), params_.max_bias);
    if (bias <= 0) continue;
    bias_[line] = bias;
    biased_lines_.push_back(line);
  }

  ++epochs_;
  digest_ = fnv1a_u64(digest_, epochs_);
  for (const std::size_t line : biased_lines_) {
    digest_ = fnv1a_u64(digest_, static_cast<std::uint64_t>(line));
    digest_ = fnv1a_u64(digest_, static_cast<std::uint64_t>(bias_[line]));
  }
}

void FluidBackground::save(snapshot::Writer& w) const {
  w.put_u64(demands_.size());
  w.put_u64(epochs_);
  w.put_u64(digest_);
  w.put_f64(aggregate_);
  w.put_u64(biased_lines_.size());
  for (const std::size_t line : biased_lines_) {
    w.put_u64(line);
    w.put_i64(bias_[line]);
  }
}

void FluidBackground::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(r.get_u64() == demands_.size(),
                 "fluid snapshot demand count mismatch: reconstruct the same demands");
  epochs_ = r.get_u64();
  digest_ = r.get_u64();
  aggregate_ = r.get_f64();
  for (const std::size_t line : biased_lines_) bias_[line] = 0;
  biased_lines_.clear();
  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t line = static_cast<std::size_t>(r.get_u64());
    QUARTZ_REQUIRE(line < bias_.size(), "fluid snapshot line out of range");
    bias_[line] = r.get_i64();
    biased_lines_.push_back(line);
  }
  // Routes re-extract lazily on the next epoch (bit-identical: the
  // oracle walk is deterministic in the demand order).
  routes_valid_ = false;
  net_->set_queue_bias(&bias_);
}

// ---------------------------------------------------------------------------

CbrSource::CbrSource(Network& net, std::vector<CbrFlow> flows, int task, TimePs start,
                     TimePs stop, std::uint64_t flow_id_base)
    : net_(&net),
      flows_(std::move(flows)),
      task_(task),
      start_(start),
      stop_(stop),
      flow_id_base_(flow_id_base) {
  QUARTZ_REQUIRE(stop_ > start_, "CBR stop must follow start");
  interval_.reserve(flows_.size());
  for (const CbrFlow& f : flows_) {
    QUARTZ_REQUIRE(net.graph().is_host(f.src) && net.graph().is_host(f.dst),
                   "CBR flows run host to host");
    QUARTZ_REQUIRE(f.src != f.dst, "CBR endpoints must differ");
    QUARTZ_REQUIRE(f.rate_bps > 0.0 && f.packet > 0, "CBR rate and packet must be positive");
    const double gap = static_cast<double>(f.packet) / f.rate_bps * 1e12;
    interval_.push_back(std::max<TimePs>(1, static_cast<TimePs>(std::llround(gap))));
  }
}

void CbrSource::arm() {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const TimePs phase =
        static_cast<TimePs>(static_cast<std::size_t>(interval_[i]) * i / flows_.size());
    TimerEvent event;
    event.handler = this;
    event.tag = static_cast<std::uint32_t>(i);
    event.a = 0;  // sequence number
    net_->schedule_timer(start_ + phase, event);
  }
}

void CbrSource::on_timer(const TimerEvent& event) {
  const std::size_t i = event.tag;
  const CbrFlow& f = flows_[i];
  net_->send(f.src, f.dst, f.packet, task_, flow_id_base_ + i, event.a);
  ++sent_;
  const TimePs next = net_->now() + interval_[i];
  if (next > stop_) return;
  TimerEvent chain;
  chain.handler = this;
  chain.tag = event.tag;
  chain.a = event.a + 1;
  net_->schedule_timer(next, chain);
}

}  // namespace quartz::sim
