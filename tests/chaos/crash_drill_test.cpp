// Crash-fault injection: SIGKILL a mid-storm child, restore from its
// last periodic checkpoint, and demand bit-exact digests — dying must
// be observationally indistinguishable from never dying.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/crash_drill.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {
namespace {

namespace fs = std::filesystem;

CrashDrillParams quick_drill(std::uint64_t seed, const std::string& dir) {
  CrashDrillParams params;
  params.storm = every_fault_storm(seed, microseconds(400));
  params.checkpoint_dir = dir;
  return params;
}

TEST(CrashDrill, KilledChildRecoversBitExactly) {
  const std::string dir = (fs::temp_directory_path() / "crash_drill_test").string();
  fs::remove_all(dir);
  const CrashDrillReport report = run_crash_drill(quick_drill(7, dir));
  EXPECT_TRUE(report.child_killed);
  EXPECT_GT(report.checkpoints_written, 0u);
  EXPECT_GT(report.restored_sequence, 0u);
  EXPECT_TRUE(report.digests_match) << report.summary();
  EXPECT_TRUE(report.recovered.passed()) << report.recovered.summary();
  EXPECT_TRUE(report.warnings.empty()) << report.warnings;
  EXPECT_TRUE(report.passed()) << report.summary();
  fs::remove_all(dir);
}

TEST(CrashDrill, TwoShardStormRecoversBitExactly) {
  // The drill checkpoints and kills at window barriers, so it works at
  // any shard count: kill a 2-shard storm mid-storm and recover it.
  const std::string dir = (fs::temp_directory_path() / "crash_drill_sharded").string();
  fs::remove_all(dir);
  CrashDrillParams params = quick_drill(17, dir);
  params.storm.shards = 2;
  const CrashDrillReport report = run_crash_drill(params);
  EXPECT_EQ(report.recovered.shards, 2);
  EXPECT_GT(report.recovered.mail_posted, 0u);
  EXPECT_GT(report.kill_at, params.storm.storm_start);
  EXPECT_LT(report.kill_at, params.storm.storm_end);
  EXPECT_GT(report.restored_sequence, 0u);
  EXPECT_TRUE(report.digests_match) << report.summary();
  EXPECT_TRUE(report.passed()) << report.summary() << "\n" << report.recovered.summary();
  fs::remove_all(dir);
}

TEST(CrashDrill, HybridStormSurvivesTheKill) {
  // Hybrid slice of the drill: the fluid background's epoch timer and
  // bias vector must survive SIGKILL + restore-from-checkpoint with the
  // same bit-exactness guarantee as the packet state.
  const std::string dir = (fs::temp_directory_path() / "crash_drill_hybrid").string();
  fs::remove_all(dir);
  CrashDrillParams params = quick_drill(13, dir);
  params.storm.hybrid_background = true;
  const CrashDrillReport report = run_crash_drill(params);
  EXPECT_TRUE(report.child_killed);
  EXPECT_TRUE(report.digests_match) << report.summary();
  EXPECT_GT(report.recovered.fluid_epochs, 0u);
  EXPECT_EQ(report.recovered.fluid_epochs, report.reference.fluid_epochs);
  EXPECT_EQ(report.recovered.fluid_digest, report.reference.fluid_digest);
  EXPECT_TRUE(report.passed()) << report.summary();
  fs::remove_all(dir);
}

TEST(CrashDrill, RecoversPastACorruptedNewestCheckpoint) {
  // Run the drill, then damage the newest checkpoint on disk and prove
  // the fallback still restores (from the previous one) with a warning.
  const std::string dir = (fs::temp_directory_path() / "crash_drill_corrupt").string();
  fs::remove_all(dir);
  CrashDrillParams params = quick_drill(11, dir);
  params.checkpoint_every = microseconds(50);
  const CrashDrillReport clean = run_crash_drill(params);
  ASSERT_TRUE(clean.passed()) << clean.summary();
  ASSERT_GT(clean.checkpoints_written, 1u);

  // Truncate the newest checkpoint: a torn write at the worst moment.
  const auto files = snapshot::list_checkpoints(dir);
  ASSERT_FALSE(files.empty());
  fs::resize_file(files.back().path, fs::file_size(files.back().path) / 2);

  std::string warnings;
  auto reader = snapshot::load_latest_intact(dir, &warnings);
  ASSERT_TRUE(reader.has_value());
  EXPECT_LT(reader->sequence(), files.back().sequence);
  EXPECT_NE(warnings.find("rejected"), std::string::npos) << warnings;

  ShardedStormRun resumed(params.storm);
  resumed.restore(*reader);
  const ShardedStormResult report = resumed.finish();
  EXPECT_EQ(report.delivery_digest, clean.reference.delivery_digest);
  EXPECT_EQ(report.drop_digest, clean.reference.drop_digest);
  EXPECT_TRUE(report.passed()) << report.summary();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace quartz::chaos
