#include "sim/probes.hpp"

#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {

ProbePlane::ProbePlane(Network& network, routing::HealthMonitor& monitor)
    : ProbePlane(network, monitor, Options{}) {}

ProbePlane::ProbePlane(Network& network, routing::HealthMonitor& monitor, Options options)
    : network_(network), monitor_(monitor), options_(options), rng_(options.seed) {
  QUARTZ_REQUIRE(options_.interval > 0, "probe interval must be positive");
  QUARTZ_REQUIRE(options_.start >= 0, "probe start cannot be negative");
  monitor_.set_transition_hook(
      [this](topo::LinkId link, routing::LinkHealth from, routing::LinkHealth to, TimePs when) {
        network_.emit_health_transition(link, from, to, when);
      });
  monitor_.set_damp_hook([this](topo::LinkId link, TimePs suppressed_until, TimePs when) {
    network_.emit_flap_damped(link, suppressed_until, when);
  });
}

void ProbePlane::start(std::vector<topo::LinkId> links) {
  if (links.empty()) {
    links.reserve(network_.graph().link_count());
    for (const topo::LinkId id : network_.graph().link_ids()) links.push_back(id);
  }
  QUARTZ_REQUIRE(!links.empty(), "no links to probe");
  // Stagger the per-link schedules evenly across one interval.
  const auto n = static_cast<TimePs>(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const topo::LinkId link = links[i];
    QUARTZ_REQUIRE(
        link >= 0 && static_cast<std::size_t>(link) < network_.graph().link_count(),
        "unknown link");
    const TimePs offset = options_.interval * static_cast<TimePs>(i) / n;
    network_.schedule_timer(options_.start + offset,
                            {this, kFireTag, static_cast<std::uint64_t>(link), 0});
  }
}

void ProbePlane::on_timer(const TimerEvent& event) {
  const auto link = static_cast<topo::LinkId>(event.a);
  if (event.tag == kFireTag) {
    fire(link);
    return;
  }
  QUARTZ_CHECK(event.tag == kResultTag, "unknown probe timer tag");
  // The probe lands; it must also find the link up on arrival.
  const bool delivered = event.b == kLaunched && network_.link_up(link);
  const TimePs now = network_.now();
  monitor_.record_probe(link, delivered, now);
  network_.emit_probe(link, delivered, now);
}

void ProbePlane::fire(topo::LinkId link) {
  const TimePs sent_at = network_.now();
  if (options_.stop >= 0 && sent_at >= options_.stop) return;
  ++sent_;
  // The probe's fate is sealed bit by bit: it must find the link up at
  // launch, survive the gray-failure coin flip, and the link must still
  // be up when it lands one propagation later.
  const bool launched = network_.link_up(link);
  const bool corrupted = launched && network_.link_loss_rate(link) > 0.0 &&
                         rng_.next_double() < network_.link_loss_rate(link);
  const auto a = static_cast<std::uint64_t>(link);
  network_.schedule_timer(sent_at + network_.graph().propagation(link),
                          {this, kResultTag, a, (launched ? kLaunched : 0) |
                                                    (corrupted ? kCorrupted : 0)});
  network_.schedule_timer(sent_at + options_.interval, {this, kFireTag, a, 0});
}

void ProbePlane::save(snapshot::Writer& w) const {
  w.put_rng(rng_);
  w.put_u64(sent_);
}

void ProbePlane::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(sent_ == 0, "restore requires a fresh (unstarted) ProbePlane");
  r.get_rng(rng_);
  sent_ = r.get_u64();
}

}  // namespace quartz::sim
