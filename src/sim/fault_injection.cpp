#include "sim/fault_injection.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {
namespace {

constexpr double kHoursPerYear = 8766.0;
constexpr double kPsPerHour = 3600.0 * 1e12;

TimePs exponential_delay(Rng& rng, double mean_ps) {
  return std::max<TimePs>(1, static_cast<TimePs>(rng.next_exponential(mean_ps)));
}

}  // namespace

PoissonFaultParams PoissonFaultParams::from_availability(const core::AvailabilityParams& params,
                                                         TimePs start, TimePs stop) {
  QUARTZ_REQUIRE(params.cuts_per_km_per_year > 0, "cut rate must be positive");
  QUARTZ_REQUIRE(params.span_km > 0, "fiber span must be positive");
  QUARTZ_REQUIRE(params.mttr_hours > 0, "repair time must be positive");
  QUARTZ_REQUIRE(stop > start, "timeline must have a positive duration");
  PoissonFaultParams out;
  out.failures_per_link_per_hour =
      params.cuts_per_km_per_year * params.span_km / kHoursPerYear;
  out.mean_repair_hours = params.mttr_hours;
  out.start = start;
  out.stop = stop;
  return out;
}

void FaultScheduler::require_valid_link(topo::LinkId link) const {
  QUARTZ_REQUIRE(
      link >= 0 && static_cast<std::size_t>(link) < network_.graph().link_count(),
      "unknown link");
}

void FaultScheduler::inject_fail(topo::LinkId link) {
  ++cuts_;
  if (++down_refs_[link] == 1) network_.fail_link(link);
}

void FaultScheduler::inject_repair(topo::LinkId link) {
  ++repairs_;
  const auto it = down_refs_.find(link);
  QUARTZ_CHECK(it != down_refs_.end() && it->second > 0, "repair without a matching cut");
  if (--it->second == 0) {
    down_refs_.erase(it);
    network_.repair_link(link);
  }
}

std::uint64_t FaultScheduler::add_action(ScriptedAction action) {
  actions_.push_back(std::move(action));
  return actions_.size() - 1;
}

void FaultScheduler::apply_action(const ScriptedAction& action) {
  switch (action.kind) {
    case ScriptedAction::Kind::kFail:
      for (const topo::LinkId link : action.links) inject_fail(link);
      return;
    case ScriptedAction::Kind::kRepair:
      for (const topo::LinkId link : action.links) inject_repair(link);
      return;
    case ScriptedAction::Kind::kDegrade:
      for (const topo::LinkId link : action.links) add_degradation(link, action.drop_p);
      return;
    case ScriptedAction::Kind::kRestore:
      for (const topo::LinkId link : action.links) remove_degradation(link, action.drop_p);
      return;
  }
  QUARTZ_CHECK(false, "unknown scripted action kind");
}

void FaultScheduler::on_timer(const TimerEvent& event) {
  switch (event.tag) {
    case kScriptTag: {
      QUARTZ_CHECK(event.a < actions_.size(), "scripted action index out of range");
      apply_action(actions_[event.a]);
      return;
    }
    case kPoissonFailTag: {
      const auto link = static_cast<topo::LinkId>(event.a);
      inject_fail(link);
      const double mean_repair_ps = poisson_.mean_repair_hours * kPsPerHour;
      const TimePs repair_at = network_.now() + exponential_delay(rng_, mean_repair_ps);
      network_.schedule_timer(
          repair_at, TimerEvent{this, kPoissonRepairTag, event.a, 0});
      return;
    }
    case kPoissonRepairTag: {
      const auto link = static_cast<topo::LinkId>(event.a);
      inject_repair(link);
      schedule_poisson_failure(link, network_.now());
      return;
    }
  }
  QUARTZ_CHECK(false, "unknown fault timer tag");
}

void FaultScheduler::schedule_cut(TimePs fail_at, std::vector<topo::LinkId> links,
                                  TimePs repair_at) {
  QUARTZ_REQUIRE(!links.empty(), "a cut needs at least one link");
  QUARTZ_REQUIRE(fail_at >= 0, "cut time cannot be negative");
  QUARTZ_REQUIRE(repair_at < 0 || repair_at > fail_at, "repair must follow the cut");
  for (const topo::LinkId link : links) require_valid_link(link);
  const std::uint64_t fail_action =
      add_action({ScriptedAction::Kind::kFail, 0.0, links});
  network_.schedule_timer(fail_at, TimerEvent{this, kScriptTag, fail_action, 0});
  if (repair_at >= 0) {
    const std::uint64_t repair_action =
        add_action({ScriptedAction::Kind::kRepair, 0.0, std::move(links)});
    network_.schedule_timer(repair_at, TimerEvent{this, kScriptTag, repair_action, 0});
  }
}

void FaultScheduler::schedule_fiber_cut(TimePs fail_at, const topo::FiberCut& cut,
                                        TimePs repair_at) {
  schedule_cut(fail_at, topo::severed_links(network_.topology(), {cut}), repair_at);
}

void FaultScheduler::add_degradation(topo::LinkId link, double drop_p) {
  ++degradations_;
  std::vector<double>& contribs = degrade_contribs_[link];
  contribs.push_back(drop_p);
  double pass = 1.0;
  for (const double p : contribs) pass *= 1.0 - p;
  network_.set_link_loss(link, 1.0 - pass);
}

void FaultScheduler::remove_degradation(topo::LinkId link, double drop_p) {
  ++restorations_;
  const auto it = degrade_contribs_.find(link);
  QUARTZ_CHECK(it != degrade_contribs_.end(), "restoration without a matching degradation");
  auto& contribs = it->second;
  const auto pos = std::find(contribs.begin(), contribs.end(), drop_p);
  QUARTZ_CHECK(pos != contribs.end(), "restoration without a matching degradation");
  contribs.erase(pos);
  double pass = 1.0;
  for (const double p : contribs) pass *= 1.0 - p;
  if (contribs.empty()) degrade_contribs_.erase(it);
  network_.set_link_loss(link, 1.0 - pass);
}

void FaultScheduler::schedule_degradation(TimePs fail_at, std::vector<topo::LinkId> links,
                                          double drop_p, TimePs repair_at) {
  QUARTZ_REQUIRE(!links.empty(), "a degradation needs at least one link");
  QUARTZ_REQUIRE(fail_at >= 0, "degradation time cannot be negative");
  QUARTZ_REQUIRE(drop_p > 0.0 && drop_p <= 1.0, "drop probability must be in (0,1]");
  QUARTZ_REQUIRE(repair_at < 0 || repair_at > fail_at, "repair must follow the degradation");
  for (const topo::LinkId link : links) require_valid_link(link);
  const std::uint64_t degrade_action =
      add_action({ScriptedAction::Kind::kDegrade, drop_p, links});
  network_.schedule_timer(fail_at, TimerEvent{this, kScriptTag, degrade_action, 0});
  if (repair_at >= 0) {
    const std::uint64_t restore_action =
        add_action({ScriptedAction::Kind::kRestore, drop_p, std::move(links)});
    network_.schedule_timer(repair_at, TimerEvent{this, kScriptTag, restore_action, 0});
  }
}

void FaultScheduler::schedule_amplifier_failure(TimePs fail_at, const topo::FiberCut& span,
                                                double drop_p, TimePs repair_at) {
  schedule_degradation(fail_at, topo::severed_links(network_.topology(), {span}), drop_p,
                       repair_at);
}

void FaultScheduler::schedule_transceiver_aging(TimePs fail_at, topo::LinkId link, double drop_p,
                                                TimePs repair_at) {
  schedule_degradation(fail_at, {link}, drop_p, repair_at);
}

void FaultScheduler::schedule_flapping(TimePs start, topo::LinkId link, TimePs down_time,
                                       TimePs up_time, int cycles) {
  QUARTZ_REQUIRE(start >= 0, "flap start cannot be negative");
  QUARTZ_REQUIRE(down_time > 0 && up_time > 0, "flap phases must have positive duration");
  QUARTZ_REQUIRE(cycles > 0, "need at least one flap cycle");
  require_valid_link(link);
  TimePs t = start;
  for (int c = 0; c < cycles; ++c) {
    schedule_cut(t, {link}, t + down_time);
    t += down_time + up_time;
  }
}

void FaultScheduler::run_poisson(const PoissonFaultParams& params,
                                 std::vector<topo::LinkId> links, Rng rng) {
  QUARTZ_REQUIRE(params.failures_per_link_per_hour > 0, "failure rate must be positive");
  QUARTZ_REQUIRE(params.mean_repair_hours > 0, "repair time must be positive");
  QUARTZ_REQUIRE(params.stop > params.start, "timeline must have a positive duration");
  poisson_ = params;
  rng_ = rng;
  if (links.empty()) {
    const topo::Graph& graph = network_.graph();
    for (const topo::LinkId id : graph.link_ids()) {
      if (graph.link(id).wdm_channel >= 0) links.push_back(id);
    }
  }
  QUARTZ_REQUIRE(!links.empty(), "no links to fail");
  for (const topo::LinkId link : links) schedule_poisson_failure(link, params.start);
}

void FaultScheduler::schedule_poisson_failure(topo::LinkId link, TimePs from) {
  const double mean_ttf_ps = kPsPerHour / poisson_.failures_per_link_per_hour;
  const TimePs fail_at = from + exponential_delay(rng_, mean_ttf_ps);
  if (fail_at >= poisson_.stop) return;
  network_.schedule_timer(
      fail_at,
      TimerEvent{this, kPoissonFailTag, static_cast<std::uint64_t>(link), 0});
}

void FaultScheduler::save(snapshot::Writer& w) const {
  w.put_u64(actions_.size());
  for (const ScriptedAction& action : actions_) {
    w.put_u8(static_cast<std::uint8_t>(action.kind));
    w.put_f64(action.drop_p);
    w.put_u64(action.links.size());
    for (const topo::LinkId link : action.links) w.put_i32(link);
  }
  w.put_f64(poisson_.failures_per_link_per_hour);
  w.put_f64(poisson_.mean_repair_hours);
  w.put_i64(poisson_.start);
  w.put_i64(poisson_.stop);
  w.put_rng(rng_);
  w.put_u64(cuts_);
  w.put_u64(repairs_);
  w.put_u64(degradations_);
  w.put_u64(restorations_);
  // unordered_map iteration order is not deterministic; sort so the
  // snapshot bytes are a pure function of the simulation state.
  std::vector<std::pair<topo::LinkId, int>> down(down_refs_.begin(), down_refs_.end());
  std::sort(down.begin(), down.end());
  w.put_u64(down.size());
  for (const auto& [link, refs] : down) {
    w.put_i32(link);
    w.put_i32(refs);
  }
  std::vector<std::pair<topo::LinkId, std::vector<double>>> degrades(
      degrade_contribs_.begin(), degrade_contribs_.end());
  std::sort(degrades.begin(), degrades.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.put_u64(degrades.size());
  for (const auto& [link, contribs] : degrades) {
    w.put_i32(link);
    w.put_f64_vec(contribs);
  }
}

void FaultScheduler::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(actions_.empty(), "restore requires a fresh FaultScheduler");
  // Each action holds at least its kind, drop_p and link count.
  const std::uint64_t action_count = r.get_count(1 + 2 * sizeof(std::uint64_t));
  actions_.reserve(action_count);
  for (std::uint64_t i = 0; i < action_count; ++i) {
    ScriptedAction action;
    action.kind = static_cast<ScriptedAction::Kind>(r.get_u8());
    action.drop_p = r.get_f64();
    const std::uint64_t link_count = r.get_count(sizeof(std::int32_t));
    action.links.reserve(link_count);
    for (std::uint64_t j = 0; j < link_count; ++j) action.links.push_back(r.get_i32());
    actions_.push_back(std::move(action));
  }
  poisson_.failures_per_link_per_hour = r.get_f64();
  poisson_.mean_repair_hours = r.get_f64();
  poisson_.start = r.get_i64();
  poisson_.stop = r.get_i64();
  r.get_rng(rng_);
  cuts_ = r.get_u64();
  repairs_ = r.get_u64();
  degradations_ = r.get_u64();
  restorations_ = r.get_u64();
  const std::uint64_t down_count = r.get_u64();
  for (std::uint64_t i = 0; i < down_count; ++i) {
    const topo::LinkId link = r.get_i32();
    down_refs_[link] = r.get_i32();
  }
  const std::uint64_t degrade_count = r.get_u64();
  for (std::uint64_t i = 0; i < degrade_count; ++i) {
    const topo::LinkId link = r.get_i32();
    degrade_contribs_[link] = r.get_f64_vec();
  }
}

void FaultScheduler::publish_metrics(telemetry::MetricRegistry& registry,
                                     const std::string& prefix) const {
  registry.counter(prefix + ".cuts").inc(cuts_);
  registry.counter(prefix + ".repairs").inc(repairs_);
  registry.counter(prefix + ".degradations").inc(degradations_);
  registry.counter(prefix + ".restorations").inc(restorations_);
}

}  // namespace quartz::sim
