// Overload-safe serving on a live Quartz ring.
//
// Keeps a small fabric alive on the event engine and streams an
// open-loop arrival process at it while three defenses guard the SLO:
// closed-loop admission (concurrency probed to the goodput knee,
// priority classes shed on sustained p99 breach), retry budgets with
// deadline propagation, and a make-before-break regroom reacting to a
// mid-run demand shift.
//
//   $ ./quartz_serve                          # defended run, hot shift at 2 ms
//   $ ./quartz_serve --arrivals=650000        # push well past the knee
//   $ ./quartz_serve --duel                   # replay the same arrivals undefended
//   $ ./quartz_serve --blackhole              # gray-fail one lightpath mid-run
//   $ ./quartz_serve --no-regroom --no-admission --no-retry-budget
//
// The loop is kill-resumable: --checkpoint-dir writes an atomic
// checkpoint every --checkpoint-every-ms of simulated time, and
// --restore resumes bit-exactly from the newest intact one — the
// resumed run prints the same report the uninterrupted run would have.
//
//   $ ./quartz_serve --checkpoint-dir=ckpt --kill-at-us=6000   # dies mid-run
//   $ ./quartz_serve --checkpoint-dir=ckpt --restore           # same report
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/table.hpp"
#include "serve/serve_loop.hpp"
#include "sim/fault_injection.hpp"
#include "snapshot/io.hpp"

namespace {

using namespace quartz;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--switches=N>=4] [--hosts=N>=1] [--arrivals=REQ_PER_SEC]\n"
      "          [--duration-ms=N] [--hot=FRACTION] [--shift-ms=N] [--seed=N]\n"
      "          [--no-admission] [--no-retry-budget] [--no-regroom]\n"
      "          [--blackhole] [--duel] [--metrics-out=FILE]\n"
      "          [--telemetry=binary|jsonl|off]\n"
      "          [--checkpoint-dir=DIR] [--checkpoint-every-ms=N] [--restore]\n"
      "          [--kill-at-us=N]\n"
      "  --blackhole  silently blackhole one mesh lightpath mid-run (gray failure)\n"
      "  --duel       replay the defended run's arrivals against an undefended loop\n"
      "  --checkpoint-dir  write an atomic checkpoint to DIR every\n"
      "               --checkpoint-every-ms (default 2) of simulated time\n"
      "  --restore    resume from the newest intact checkpoint in --checkpoint-dir\n"
      "  --kill-at-us _Exit(137) once simulated time reaches N us (crash drill;\n"
      "               needs --checkpoint-dir)\n"
      "  --telemetry=binary  capture the defended run's event stream in\n"
      "               <metrics-out>.qtz (decode with quartz_decode); jsonl\n"
      "               also decodes it into <metrics-out>.events.jsonl\n"
      "  --shards=1   accepted for CLI symmetry; the serve loop is a single\n"
      "               closed control loop and refuses --shards>1\n",
      argv0);
  return 1;
}

void print_report(const char* label, const serve::ServeReport& r) {
  std::printf("\n%s:\n", label);
  Table table({"counter", "value"});
  table.add_row({"arrivals", std::to_string(r.arrivals)});
  table.add_row({"admitted", std::to_string(r.admitted)});
  table.add_row({"shed (class / limit)",
                 std::to_string(r.shed_class) + " / " + std::to_string(r.shed_limit)});
  table.add_row({"completed in deadline", std::to_string(r.in_deadline)});
  table.add_row({"late", std::to_string(r.late)});
  table.add_row({"failed", std::to_string(r.failed)});
  table.add_row({"retries (denied / hopeless)",
                 std::to_string(r.retries) + " (" + std::to_string(r.budget_denied) + " / " +
                     std::to_string(r.hopeless_dropped) + ")"});
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.0f", r.goodput_per_sec);
  table.add_row({"goodput (req/s)", buffer});
  std::snprintf(buffer, sizeof(buffer), "%.1f / %.1f / %.1f", r.p50_us, r.p99_us, r.p999_us);
  table.add_row({"latency p50/p99/p99.9 (us)", buffer});
  std::snprintf(buffer, sizeof(buffer), "%.3f", r.retry_amplification);
  table.add_row({"retry amplification", buffer});
  table.add_row({"SLO windows breached",
                 std::to_string(r.windows_breached) + " of " + std::to_string(r.windows_closed)});
  table.add_row({"admission limit (final / knee)",
                 std::to_string(r.final_limit) + " / " + std::to_string(r.knee_limit)});
  table.add_row({"regrooms (pins applied / rejected)",
                 std::to_string(r.reconfigurations) + " (" + std::to_string(r.pins_applied) +
                     " / " + std::to_string(r.pins_rejected) + ")"});
  table.add_row({"conservation", r.conservation_ok ? "ok" : "VIOLATED"});
  std::printf("%s\n", table.to_text().c_str());
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  for (const auto& key :
       flags.unknown_keys({"switches", "hosts", "arrivals", "duration-ms", "hot", "shift-ms",
                           "seed", "no-admission", "no-retry-budget", "no-regroom", "blackhole",
                           "duel", "metrics-out", "telemetry", "checkpoint-dir",
                           "checkpoint-every-ms", "restore", "kill-at-us", "shards"})) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    return usage(argv[0]);
  }
  if (!flags.positional().empty()) return usage(argv[0]);
  if (flags.get_int("shards", 1) != 1) {
    // The serve loop's admission controller, retry budgets and
    // re-groomer are one closed feedback loop over the whole fabric;
    // replicating them per shard would change admission decisions.
    // Intra-run sharding stays a simulate/latency_study capability.
    std::fprintf(stderr,
                 "--shards=%lld: the serve loop is a single closed control loop and "
                 "does not shard; use --shards on simulate/latency_study, or run "
                 "independent serve processes\n",
                 static_cast<long long>(flags.get_int("shards", 1)));
    return 1;
  }

  serve::ServeConfig config;
  config.ring.switches = static_cast<int>(flags.get_int("switches", 4));
  config.ring.hosts_per_switch = static_cast<int>(flags.get_int("hosts", 2));
  if (config.ring.switches < 4 || config.ring.hosts_per_switch < 1) return usage(argv[0]);
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  if (flags.get_int("duration-ms", 10) < 1) return usage(argv[0]);
  config.duration = milliseconds(flags.get_int("duration-ms", 10));
  config.drain = milliseconds(8);
  config.arrivals_per_sec = flags.get_double("arrivals", 450'000.0);
  if (config.arrivals_per_sec <= 0.0) return usage(argv[0]);
  config.reply_size = bytes(100);
  config.timeout = microseconds(1500);
  config.max_retries = 2;
  config.classes = {{"gold", 0.2, milliseconds(2)},
                    {"silver", 0.3, milliseconds(2)},
                    {"bronze", 0.5, milliseconds(2)}};
  config.slo.window = microseconds(500);
  config.slo.budget_p99_us = 1200.0;
  config.slo.budget_p999_us = 1800.0;
  const double hot = flags.get_double("hot", 0.9);
  if (hot < 0.0 || hot > 1.0) return usage(argv[0]);
  if (hot > 0.0) {
    config.shifts = {{milliseconds(flags.get_int("shift-ms", 2)), 0, 1, hot}};
  }
  config.use_admission = !flags.get_bool("no-admission");
  config.use_retry_budget = !flags.get_bool("no-retry-budget");
  config.reconfigure_on_shift = !flags.get_bool("no-regroom");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  const std::string checkpoint_dir = flags.get("checkpoint-dir", "");
  const long long checkpoint_every_ms = flags.get_int("checkpoint-every-ms", 2);
  const long long kill_at_us = flags.get_int("kill-at-us", 0);
  const bool restore = flags.get_bool("restore");
  if (checkpoint_dir.empty() && (restore || kill_at_us > 0)) {
    std::fprintf(stderr, "--restore and --kill-at-us need --checkpoint-dir\n");
    return usage(argv[0]);
  }
  if (!checkpoint_dir.empty() && checkpoint_every_ms < 1) return usage(argv[0]);
  if (!checkpoint_dir.empty() && flags.get_bool("blackhole")) {
    // The blackhole is a FaultScheduler timeline, and FaultScheduler is
    // not part of ServeLoop's snapshot: a resumed run would lose it.
    std::fprintf(stderr, "--blackhole cannot be combined with --checkpoint-dir\n");
    return usage(argv[0]);
  }

  std::printf("Quartz serve: %d switches x %d hosts, %.0f req/s offered for %.0f ms\n",
              config.ring.switches, config.ring.hosts_per_switch, config.arrivals_per_sec,
              to_microseconds(config.duration) / 1000.0);
  std::printf("  defenses: admission %s, retry budget %s, regroom on shift %s\n",
              config.use_admission ? "on" : "OFF", config.use_retry_budget ? "on" : "OFF",
              config.reconfigure_on_shift ? "on" : "OFF");
  if (!config.shifts.empty()) {
    std::printf("  demand shift: %.0f%% of arrivals onto switch pair 0->1 at %.1f ms\n",
                100.0 * hot, to_microseconds(config.shifts.front().at) / 1000.0);
  }

  cli::RunOutputs outputs(flags);
  if (!outputs.valid(stderr)) return usage(argv[0]);
  serve::ServeLoop loop(config);
  if (!outputs.open(&loop.network())) return 1;

  sim::FaultScheduler faults(loop.network());
  if (flags.get_bool("blackhole")) {
    // Gray-fail the first mesh lightpath: the failure view never
    // learns, so only timeouts (and the retry budget) notice.
    const topo::Graph& graph = loop.topology().graph;
    for (const topo::LinkId id : graph.link_ids()) {
      if (graph.link(id).wdm_channel < 0) continue;
      const TimePs at = config.duration / 4;
      faults.schedule_transceiver_aging(at, id, 1.0);
      std::printf("  gray failure: mesh link %d blackholed from %.1f ms\n", id,
                  to_microseconds(at) / 1000.0);
      break;
    }
  }
  serve::ServeReport defended;
  if (checkpoint_dir.empty()) {
    defended = loop.run();
  } else {
    // Checkpoint / restore notices go to stderr so a resumed run's
    // stdout diffs cleanly against the uninterrupted run's.
    std::filesystem::create_directories(checkpoint_dir);
    std::uint64_t start_sequence = 0;
    if (restore) {
      std::string warnings;
      const auto sequence = loop.restore_latest(checkpoint_dir, &warnings);
      if (!warnings.empty()) std::fprintf(stderr, "%s", warnings.c_str());
      if (sequence.has_value()) {
        start_sequence = *sequence;
        std::fprintf(stderr, "restored from checkpoint %llu at %.3f ms\n",
                     static_cast<unsigned long long>(start_sequence),
                     to_microseconds(loop.network().now()) / 1000.0);
      } else {
        std::fprintf(stderr, "no intact checkpoint in %s; starting fresh\n",
                     checkpoint_dir.c_str());
      }
    }
    const serve::ServeLoop::CheckpointOptions options{
        checkpoint_dir, milliseconds(checkpoint_every_ms), start_sequence};
    if (kill_at_us <= 0) {
      defended = loop.run_with_checkpoints(options);
    } else {
      // Crash drill: checkpoint on the cadence grid, then die abruptly
      // (no flush, no report) once simulated time reaches the kill mark.
      const TimePs kill_at = microseconds(kill_at_us);
      const TimePs end = config.duration + config.drain;
      if (loop.network().now() == 0 && start_sequence == 0) loop.start();
      std::uint64_t sequence = start_sequence;
      auto run_or_crash = [&](TimePs until) {
        loop.run_to(std::min(until, kill_at));
        if (loop.network().now() < kill_at || kill_at >= end) return;
        std::fprintf(stderr, "simulated crash at %.3f ms after checkpoint %llu\n",
                     to_microseconds(loop.network().now()) / 1000.0,
                     static_cast<unsigned long long>(sequence));
        std::_Exit(137);
      };
      for (TimePs next = (loop.network().now() / options.every + 1) * options.every; next < end;
           next += options.every) {
        run_or_crash(next);
        snapshot::Writer writer;
        loop.save_snapshot(writer);
        ++sequence;
        snapshot::write_file_atomic(snapshot::checkpoint_path(checkpoint_dir, sequence), writer,
                                    sequence);
      }
      run_or_crash(end);
      defended = loop.finish();
    }
  }
  print_report("defended run", defended);

  if (flags.get_bool("duel")) {
    serve::ServeConfig raw = config;
    raw.use_admission = false;
    raw.use_retry_budget = false;
    raw.reconfigure_on_shift = false;
    const std::vector<serve::TraceEvent> trace = loop.trace();
    raw.replay = &trace;
    serve::ServeLoop undefended(raw);
    const serve::ServeReport baseline = undefended.run();
    print_report("undefended replay (same arrivals)", baseline);
    std::printf("duel: defended delivered %llu in-deadline vs %llu undefended (%.2fx)\n",
                static_cast<unsigned long long>(defended.in_deadline),
                static_cast<unsigned long long>(baseline.in_deadline),
                baseline.in_deadline == 0
                    ? 0.0
                    : static_cast<double>(defended.in_deadline) /
                          static_cast<double>(baseline.in_deadline));
  }

  if (outputs.metrics().enabled()) loop.publish_metrics(outputs.metrics(), "serve");
  return outputs.finish() ? 0 : 1;
}

int main(int argc, char** argv) { return cli::guarded_main(run, argc, argv); }
