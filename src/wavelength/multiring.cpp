#include "wavelength/multiring.hpp"

#include <algorithm>

namespace quartz::wavelength {

int rings_required(int channels_used, int channels_per_mux) {
  QUARTZ_REQUIRE(channels_used >= 0, "negative channel count");
  QUARTZ_REQUIRE(channels_per_mux >= 1, "mux must carry at least one channel");
  if (channels_used == 0) return 0;
  return (channels_used + channels_per_mux - 1) / channels_per_mux;
}

int ring_for_channel(int channel, int physical_rings) {
  QUARTZ_REQUIRE(channel >= 0, "negative channel");
  QUARTZ_REQUIRE(physical_rings >= 1, "need at least one physical ring");
  return channel % physical_rings;
}

std::vector<int> channels_per_ring(const Assignment& assignment, int physical_rings) {
  QUARTZ_REQUIRE(physical_rings >= 1, "need at least one physical ring");
  std::vector<int> counts(static_cast<std::size_t>(physical_rings), 0);
  std::vector<bool> seen(static_cast<std::size_t>(assignment.channels_used), false);
  for (const auto& p : assignment.paths) {
    QUARTZ_REQUIRE(p.channel >= 0 && p.channel < assignment.channels_used,
                   "assignment has unassigned or out-of-range channel");
    if (!seen[static_cast<std::size_t>(p.channel)]) {
      seen[static_cast<std::size_t>(p.channel)] = true;
      ++counts[static_cast<std::size_t>(ring_for_channel(p.channel, physical_rings))];
    }
  }
  return counts;
}

FiberCuts::FiberCuts(int ring_size, int physical_rings)
    : ring_size_(ring_size), failed_(static_cast<std::size_t>(physical_rings), 0) {
  QUARTZ_REQUIRE(physical_rings >= 1, "need at least one ring");
}

void FiberCuts::cut(int ring, int segment) {
  QUARTZ_REQUIRE(ring >= 0 && ring < static_cast<int>(failed_.size()), "ring index out of range");
  QUARTZ_REQUIRE(segment >= 0 && segment < ring_size_, "segment index out of range");
  failed_[static_cast<std::size_t>(ring)] |= 1ull << segment;
  empty_ = false;
}

bool FiberCuts::severs(const Lightpath& path) const {
  const int ring = ring_for_channel(path.channel, static_cast<int>(failed_.size()));
  return (segment_mask(ring_size_, path.src, path.dst, path.dir) &
          failed_[static_cast<std::size_t>(ring)]) != 0;
}

}  // namespace quartz::wavelength
