// Spreading a channel plan over multiple physical fiber rings.
//
// A commodity mux/demux carries about 80 channels, so a plan needing
// more (e.g. the 33-switch ring's 137 channels in §3.5) uses several
// muxes per switch and thus several parallel physical rings.  The paper
// also adds rings purely for fault tolerance: with lightpaths spread
// over R rings, one fiber cut only severs the crossing lightpaths of
// that one ring (Fig. 6).
#pragma once

#include "wavelength/lightpath.hpp"

namespace quartz::wavelength {

/// Physical rings needed to carry `channels_used` channels with muxes
/// of the given per-ring capacity.
int rings_required(int channels_used, int channels_per_mux);

/// Ring carrying a given channel when the plan is striped over
/// `physical_rings` rings.  Round-robin striping balances both channel
/// counts and lightpath lengths across rings.
int ring_for_channel(int channel, int physical_rings);

/// Per-ring channel counts for an assignment striped over
/// `physical_rings` rings (each must fit within a mux's capacity).
std::vector<int> channels_per_ring(const Assignment& assignment, int physical_rings);

/// Fiber cuts on a ring of `ring_size` switches whose plan is striped
/// over `physical_rings` rings, one failed-span mask per ring.  Fig. 6's
/// severing rule: a lightpath is lost when its arc crosses a cut span
/// of the ring carrying its channel.
class FiberCuts {
 public:
  FiberCuts(int ring_size, int physical_rings);

  /// Cut span `segment` (0..ring_size-1) of physical ring `ring`.
  void cut(int ring, int segment);
  bool empty() const { return empty_; }
  bool severs(const Lightpath& path) const;

 private:
  int ring_size_;
  std::vector<std::uint64_t> failed_;
  bool empty_ = true;
};

}  // namespace quartz::wavelength
