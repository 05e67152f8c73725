// Crash-fault injection: prove a storm survives SIGKILL.
//
// The checkpoint tests exercise save/restore cooperatively — the run
// pauses, serializes, and resumes in the same process.  A crash drill
// removes the cooperation: it forks a child that drives the same storm
// while writing periodic checkpoints at window barriers, then has the
// child SIGKILL itself at a seeded simulated time in the middle of the
// storm window (no destructors, no flushes, no warning — the closest a
// test gets to a power cut).  The parent reaps the corpse, loads the
// newest intact checkpoint from disk, resumes the storm in a fresh
// ShardedStormRun and finishes it.  The drill works at any shard count.
//
// The verdict is strict: the recovered run's delivery and drop digests
// must equal the uninterrupted reference run's bit for bit, and the
// four storm invariants (conservation, hop bound, convergence, latency
// recovery) must all hold — dying mid-storm and recovering from disk
// must be observationally indistinguishable from never dying.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/sharded_storm.hpp"

namespace quartz::chaos {

struct CrashDrillParams {
  ShardedStormParams storm;
  /// Directory for the child's periodic checkpoints (created if absent).
  std::string checkpoint_dir;
  /// Checkpoint cadence in simulated time.
  TimePs checkpoint_every = microseconds(100);
};

struct CrashDrillReport {
  ShardedStormResult reference;  ///< the uninterrupted run
  ShardedStormResult recovered;  ///< the killed-and-restored run

  TimePs kill_at = 0;                     ///< simulated time the child died at
  std::uint64_t checkpoints_written = 0;  ///< checkpoints found on disk
  std::uint64_t restored_sequence = 0;    ///< sequence resumed from (0 = from scratch)
  bool child_killed = false;              ///< child actually died of SIGKILL
  bool digests_match = false;             ///< recovered digests == reference digests
  /// Structured warnings from the fallback scan (damaged snapshots).
  std::string warnings;

  bool passed() const { return child_killed && digests_match && recovered.passed(); }
  std::string summary() const;
};

/// Run the full drill: reference run, fork + kill, restore, verdict.
/// POSIX-only (fork/SIGKILL); every caller in this repo is.
CrashDrillReport run_crash_drill(const CrashDrillParams& params);

}  // namespace quartz::chaos
