#include "sim/sweep.hpp"

#include "common/hash.hpp"

namespace quartz::sim {

std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t point) {
  // SplitMix64 finalizer over a golden-ratio stride from the root: the
  // same scheme Rng uses to expand one seed into decorrelated state.
  return splitmix64_mix(root_seed + kSplitMixGamma * (point + 1));
}

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

RunningStats merged_stats(const std::vector<RunningStats>& parts) {
  RunningStats merged;
  for (const RunningStats& part : parts) merged.merge(part);
  return merged;
}

}  // namespace quartz::sim
