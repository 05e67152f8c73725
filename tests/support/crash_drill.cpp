#include "support/crash_drill.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {
namespace {

[[noreturn]] void child_body(const CrashDrillParams& params, TimePs kill_at) {
  // The child is about to die without unwinding; if anything throws
  // before the kill, die loudly instead of running parent cleanup.
  try {
    ShardedStormRun run(params.storm);
    run.arm();
    std::uint64_t sequence = 0;
    for (TimePs t = params.checkpoint_every; t < kill_at; t += params.checkpoint_every) {
      run.run_to(t);
      snapshot::Writer writer;
      run.save(writer);
      ++sequence;
      snapshot::write_file_atomic(snapshot::checkpoint_path(params.checkpoint_dir, sequence),
                                  writer, sequence);
    }
    run.run_to(kill_at);
  } catch (...) {
    _exit(97);
  }
  // Process death at a window barrier: no destructor, no flush, no
  // atexit — exactly what a power cut or OOM kill looks like.
  raise(SIGKILL);
  _exit(98);  // unreachable
}

}  // namespace

std::string CrashDrillReport::summary() const {
  std::ostringstream os;
  os << "crash drill seed=" << reference.seed << " shards=" << reference.shards
     << " killed_at_ps=" << kill_at << " checkpoints=" << checkpoints_written
     << " restored_from=" << restored_sequence
     << " digests=" << (digests_match ? "match" : "MISMATCH")
     << " invariants=" << (recovered.passed() ? "pass" : "FAIL")
     << (passed() ? " PASS" : " FAIL");
  return os.str();
}

CrashDrillReport run_crash_drill(const CrashDrillParams& params) {
  QUARTZ_REQUIRE(!params.checkpoint_dir.empty(), "crash drill needs a checkpoint directory");
  QUARTZ_REQUIRE(params.checkpoint_every > 0, "checkpoint cadence must be positive");
  std::filesystem::create_directories(params.checkpoint_dir);

  CrashDrillReport report;
  report.reference = run_storm(params.storm);

  // The kill lands uniformly in the middle 60% of the storm window,
  // seeded by the storm so the drill is reproducible.
  const ShardedStormParams& storm = params.storm;
  Rng kill_rng(storm.seed ^ 0x4B494C4Cull);  // "KILL"
  const TimePs window = storm.storm_end - storm.storm_start;
  report.kill_at = storm.storm_start + window / 5 +
                   static_cast<TimePs>(kill_rng.next_double() * 0.6 * static_cast<double>(window));

  // The reference run's workers are joined by now, so the fork copies a
  // single-threaded process.
  const pid_t pid = fork();
  QUARTZ_CHECK(pid >= 0, "fork failed");
  if (pid == 0) child_body(params, report.kill_at);

  int status = 0;
  const pid_t reaped = waitpid(pid, &status, 0);
  QUARTZ_CHECK(reaped == pid, "waitpid lost the crash-drill child");
  report.child_killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;

  report.checkpoints_written = snapshot::list_checkpoints(params.checkpoint_dir).size();

  // Recovery: newest intact checkpoint, else from scratch (a kill
  // before the first checkpoint is still a recoverable crash — the
  // run simply replays from time zero).
  ShardedStormRun resumed(storm);
  auto reader = snapshot::load_latest_intact(params.checkpoint_dir, &report.warnings);
  if (reader.has_value()) {
    report.restored_sequence = reader->sequence();
    resumed.restore(*reader);
  } else {
    resumed.arm();
  }
  report.recovered = resumed.finish();

  report.digests_match =
      report.recovered.delivery_digest == report.reference.delivery_digest &&
      report.recovered.drop_digest == report.reference.drop_digest &&
      report.recovered.events == report.reference.events &&
      report.recovered.deliveries == report.reference.deliveries &&
      report.recovered.sent == report.reference.sent &&
      report.recovered.fluid_digest == report.reference.fluid_digest;
  return report;
}

}  // namespace quartz::chaos
