// quartz_paper --figure=snapshot: checkpoint cost model, what a .qsnap
// checkpoint costs the serve loop (pause while the state serializes and
// hits disk), how big the state is per switch, and that recovery is
// both fast and bit-exact.
//
// Emits BENCH_snapshot.json with three machine-checked claims:
//   * checkpoint_pause: wall-clock pause per periodic checkpoint of a
//     loaded serve loop (save_snapshot + atomic file write).  The p99
//     pause is QUARTZ_CHECKed < 10 ms — the bounded-pause budget that
//     makes in-band checkpointing viable for a live service;
//   * snapshot_size: bytes on disk per ring switch (the state-density
//     budget, QUARTZ_CHECKed < 64 KiB/switch so checkpoints stay cheap
//     as fabrics scale);
//   * recovery_fidelity: a loop restored from the last checkpoint
//     finishes with a report identical to the uninterrupted run, and a
//     mid-storm snapshot rehearsal reproduces the chaos harness's
//     delivery/drop digests exactly (both QUARTZ_CHECKed).
#include "report.hpp"

#include <chrono>
#include <cinttypes>
#include <filesystem>
#include <string>
#include <vector>

#include "chaos/sharded_storm.hpp"
#include "common/check.hpp"
#include "serve/serve_loop.hpp"
#include "snapshot/io.hpp"

namespace {

using namespace quartz;

/// A loaded operating point: the quartz_serve CLI's shape (hot shift,
/// all defenses on) at an offered load near the knee.
serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.ring.switches = 8;
  config.ring.hosts_per_switch = 2;
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  config.duration = milliseconds(12);
  config.drain = milliseconds(6);
  config.arrivals_per_sec = 400'000.0;
  config.reply_size = bytes(100);
  config.timeout = microseconds(1500);
  config.max_retries = 2;
  config.classes = {{"gold", 0.2, milliseconds(2)},
                    {"silver", 0.3, milliseconds(2)},
                    {"bronze", 0.5, milliseconds(2)}};
  config.slo.window = microseconds(500);
  config.slo.budget_p99_us = 1200.0;
  config.slo.budget_p999_us = 1800.0;
  config.shifts = {{milliseconds(4), 0, 1, 0.9}};
  config.seed = 11;
  return config;
}

bool reports_equal(const serve::ServeReport& a, const serve::ServeReport& b) {
  return a.arrivals == b.arrivals && a.admitted == b.admitted && a.shed_class == b.shed_class &&
         a.shed_limit == b.shed_limit && a.completed == b.completed &&
         a.in_deadline == b.in_deadline && a.late == b.late && a.failed == b.failed &&
         a.retries == b.retries && a.budget_denied == b.budget_denied &&
         a.goodput_per_sec == b.goodput_per_sec && a.p50_us == b.p50_us && a.p99_us == b.p99_us &&
         a.p999_us == b.p999_us && a.windows_closed == b.windows_closed &&
         a.windows_breached == b.windows_breached && a.reconfigurations == b.reconfigurations &&
         a.pins_applied == b.pins_applied && a.conservation_ok && b.conservation_ok;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

void quartz::bench::run_snapshot() {
  Report& report = Report::instance();

  const std::string dir = (std::filesystem::temp_directory_path() / "bench_snapshot_ckpt").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // --- checkpoint_pause: drive the loop on a 1 ms cadence, timing each
  // save + atomic write as the pause the service would observe.
  const serve::ServeConfig config = serve_config();
  const TimePs cadence = milliseconds(1);
  const TimePs end = config.duration + config.drain;
  serve::ServeLoop loop(config);
  loop.start();
  std::vector<double> pause_ms;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t sequence = 0;
  for (TimePs next = cadence; next < end; next += cadence) {
    loop.run_to(next);
    const auto t0 = std::chrono::steady_clock::now();
    snapshot::Writer writer;
    loop.save_snapshot(writer);
    ++sequence;
    snapshot::write_file_atomic(snapshot::checkpoint_path(dir, sequence), writer, sequence);
    pause_ms.push_back(bench::seconds_since(t0) * 1e3);
    snapshot_bytes = snapshot::file_bytes(writer, sequence).size();
  }
  const serve::ServeReport interrupted = loop.finish();
  const double pause_p50 = percentile(pause_ms, 0.50);
  const double pause_p99 = percentile(pause_ms, 0.99);
  const double pause_max = percentile(pause_ms, 1.0);

  // --- recovery_fidelity (serve): a fresh loop restored from the last
  // checkpoint must finish with the uninterrupted run's report.
  serve::ServeLoop recovered(serve_config());
  std::string warnings;
  const auto t_restore = std::chrono::steady_clock::now();
  const auto restored_sequence = recovered.restore_latest(dir, &warnings);
  const double restore_ms = bench::seconds_since(t_restore) * 1e3;
  QUARTZ_CHECK(restored_sequence.has_value(), "no intact checkpoint to restore");
  QUARTZ_CHECK(warnings.empty(), "checkpoint scan warned: " + warnings);
  const serve::ServeReport resumed = recovered.finish();

  serve::ServeLoop uninterrupted(serve_config());
  const serve::ServeReport reference = uninterrupted.run();
  const bool serve_match = reports_equal(reference, resumed) && reports_equal(reference, interrupted);

  // --- recovery_fidelity (chaos): the storm harness's own mid-storm
  // snapshot rehearsal, digest-compared against the plain run.
  const chaos::ShardedStormParams storm = chaos::every_fault_storm(23, milliseconds(2));
  const chaos::ShardedStormResult plain = chaos::run_storm(storm);
  const chaos::ShardedStormResult rehearsal =
      chaos::run_storm(storm, /*restore_rehearsal=*/true);
  const bool storm_match = plain.delivery_digest == rehearsal.delivery_digest &&
                           plain.drop_digest == rehearsal.drop_digest &&
                           plain.events == rehearsal.events &&
                           plain.passed() && rehearsal.passed();

  const double bytes_per_switch =
      static_cast<double>(snapshot_bytes) / static_cast<double>(config.ring.switches);
  Table table({"metric", "value"});
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", pause_p50);
  table.add_row({"pause_p50_ms", buffer});
  std::snprintf(buffer, sizeof(buffer), "%.3f", pause_p99);
  table.add_row({"pause_p99_ms", buffer});
  std::snprintf(buffer, sizeof(buffer), "%.3f", pause_max);
  table.add_row({"pause_max_ms", buffer});
  table.add_row({"checkpoints", std::to_string(sequence)});
  table.add_row({"snapshot_bytes", std::to_string(snapshot_bytes)});
  std::snprintf(buffer, sizeof(buffer), "%.1f", bytes_per_switch);
  table.add_row({"bytes_per_switch", buffer});
  std::snprintf(buffer, sizeof(buffer), "%.3f", restore_ms);
  table.add_row({"restore_ms", buffer});
  table.add_row({"serve_report_match", serve_match ? "1" : "0"});
  table.add_row({"storm_digest_match", storm_match ? "1" : "0"});
  report.add_table("snapshot_summary", table);

  report.note("pause = save_snapshot + atomic tmp/rename write, measured in-band on a "
              "loaded 8-switch serve loop at a 1 ms cadence");
  report.note("recovery fidelity: restored serve report and rehearsed storm digests are "
              "compared field-for-field against the uninterrupted runs");

  // The budgets this artifact exists to defend.
  QUARTZ_CHECK(pause_p99 < 10.0, "checkpoint pause p99 exceeds the 10 ms budget");
  QUARTZ_CHECK(bytes_per_switch < 64.0 * 1024.0,
               "snapshot density exceeds the 64 KiB/switch budget");
  QUARTZ_CHECK(serve_match, "restored serve run diverged from the uninterrupted run");
  QUARTZ_CHECK(storm_match, "storm snapshot rehearsal diverged from the plain storm");

  std::filesystem::remove_all(dir);
}
