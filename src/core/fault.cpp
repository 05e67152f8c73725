#include "core/fault.hpp"

#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "wavelength/multiring.hpp"

namespace quartz::core {
namespace {

/// Union-find over the ring's switches.
class DisjointSets {
 public:
  explicit DisjointSets(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

FaultTrial evaluate_failures(const wavelength::Assignment& plan, int physical_rings,
                             const std::vector<std::pair<int, int>>& failed_ring_segments) {
  const int m = plan.ring_size;
  wavelength::FiberCuts cuts(m, physical_rings);
  for (const auto& [ring, segment] : failed_ring_segments) cuts.cut(ring, segment);

  FaultTrial trial;
  trial.total_lightpaths = static_cast<int>(plan.paths.size());
  DisjointSets components(m);
  for (const auto& path : plan.paths) {
    if (cuts.severs(path)) {
      ++trial.lost_lightpaths;
    } else {
      components.unite(path.src, path.dst);
    }
  }

  const int root = components.find(0);
  for (int v = 1; v < m; ++v) {
    if (components.find(v) != root) {
      trial.partitioned = true;
      break;
    }
  }
  return trial;
}

FaultResult analyze_faults(const FaultParams& params) {
  QUARTZ_REQUIRE(params.switches >= 2, "ring too small");
  QUARTZ_REQUIRE(params.physical_rings >= 1, "need at least one ring");
  QUARTZ_REQUIRE(params.trials >= 1, "need at least one trial");
  const int total_fibers = params.switches * params.physical_rings;
  QUARTZ_REQUIRE(params.failed_links >= 0 && params.failed_links <= total_fibers,
                 "more failures than fiber segments");

  const wavelength::Assignment plan = wavelength::greedy_assign(params.switches);
  Rng rng(params.seed);

  double loss_sum = 0.0;
  int partitions = 0;
  std::vector<int> fibers(static_cast<std::size_t>(total_fibers));
  std::iota(fibers.begin(), fibers.end(), 0);

  for (int t = 0; t < params.trials; ++t) {
    // Sample failed fibers without replacement (partial Fisher-Yates).
    std::vector<std::pair<int, int>> failures;
    for (int i = 0; i < params.failed_links; ++i) {
      const auto j =
          i + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(total_fibers - i)));
      std::swap(fibers[static_cast<std::size_t>(i)], fibers[static_cast<std::size_t>(j)]);
      const int fiber = fibers[static_cast<std::size_t>(i)];
      failures.emplace_back(fiber / params.switches, fiber % params.switches);
    }
    const FaultTrial trial = evaluate_failures(plan, params.physical_rings, failures);
    loss_sum += static_cast<double>(trial.lost_lightpaths) /
                static_cast<double>(trial.total_lightpaths);
    if (trial.partitioned) ++partitions;
  }

  FaultResult result;
  result.trials = params.trials;
  result.mean_bandwidth_loss = loss_sum / params.trials;
  result.partition_probability = static_cast<double>(partitions) / params.trials;
  return result;
}

AvailabilityResult analyze_availability(const AvailabilityParams& params) {
  QUARTZ_REQUIRE(params.switches >= 2, "ring too small");
  QUARTZ_REQUIRE(params.physical_rings >= 1, "need at least one ring");
  QUARTZ_REQUIRE(params.trials >= 1, "need trials");
  QUARTZ_REQUIRE(params.cuts_per_km_per_year >= 0 && params.span_km >= 0 &&
                     params.mttr_hours >= 0,
                 "rates cannot be negative");

  constexpr double kHoursPerYear = 8766.0;
  const double down_probability = std::min(
      1.0, params.cuts_per_km_per_year * params.span_km * params.mttr_hours / kHoursPerYear);

  const wavelength::Assignment plan = wavelength::greedy_assign(params.switches);
  Rng rng(params.seed);

  double availability_sum = 0.0;
  int partitioned_trials = 0;
  for (int t = 0; t < params.trials; ++t) {
    std::vector<std::pair<int, int>> failures;
    for (int ring = 0; ring < params.physical_rings; ++ring) {
      for (int segment = 0; segment < params.switches; ++segment) {
        if (rng.next_bool(down_probability)) failures.emplace_back(ring, segment);
      }
    }
    const FaultTrial trial = evaluate_failures(plan, params.physical_rings, failures);
    availability_sum += 1.0 - static_cast<double>(trial.lost_lightpaths) /
                                  static_cast<double>(trial.total_lightpaths);
    if (trial.partitioned) ++partitioned_trials;
  }

  AvailabilityResult result;
  result.trials = params.trials;
  result.segment_down_probability = down_probability;
  result.mean_bandwidth_availability = availability_sum / params.trials;
  result.partition_minutes_per_year =
      static_cast<double>(partitioned_trials) / params.trials * kHoursPerYear * 60.0;
  return result;
}

}  // namespace quartz::core
