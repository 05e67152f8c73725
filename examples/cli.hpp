// The simulator CLIs' shared front end (simulate, latency_study,
// quartz_serve, fault_drill, quartz_decode): the --metrics-out and
// --telemetry run outputs, the --topology and --fib parsers, the
// fault-free storm behind the --shards paths, and the main() wrapper
// that keeps a malformed flag value from escaping as an exception.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "chaos/sharded_storm.hpp"
#include "common/flags.hpp"
#include "sim/network.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::cli {

/// One run's output files.  --metrics-out=FILE writes the metric
/// registry to FILE as CSV; --telemetry=binary captures the event
/// stream into FILE.qtz, and --telemetry=jsonl also decodes that
/// capture into FILE.events.jsonl once the run is over.
class RunOutputs {
 public:
  explicit RunOutputs(const Flags& flags);

  /// --telemetry is binary, jsonl or off, and anything but off has a
  /// --metrics-out to derive its paths from.  False after printing
  /// why to `messages`.
  bool valid(std::FILE* messages) const;
  /// Creates the capture files and, given a `live` loop's network,
  /// captures its events through a background BinaryStream until
  /// finish().  False after printing "cannot open PATH" to stderr.
  bool open(sim::Network* live = nullptr);

  /// Enabled exactly when --metrics-out is given.
  telemetry::MetricRegistry& metrics() { return metrics_; }
  /// The capture's page sink (TaskTelemetryOptions::stream), or null
  /// under --telemetry=off.
  telemetry::PageSink* stream() { return file_.get(); }

  /// Writes the metrics CSV, completes the capture and decodes the
  /// JSONL, printing one "metrics:", "event stream:" and "events:"
  /// line for each output written.  False after printing the failure
  /// to stderr.
  bool finish();

 private:
  /// Prints "<what> <metrics-out><suffix>" to stderr; returns false.
  bool failed(const char* what, const char* suffix) const;

  std::string metrics_path_;
  std::string mode_;
  telemetry::MetricRegistry metrics_;
  std::ofstream events_;
  std::unique_ptr<telemetry::StreamFile> file_;
  std::unique_ptr<telemetry::BinaryStream> live_;
  std::unique_ptr<telemetry::BinaryStreamSink> live_sink_;
  sim::Network* live_net_ = nullptr;
};

/// --topology=composite:SPEC: stores SPEC ("" without the flag).
/// False after printing why to stdout.
bool parse_topology(const Flags& flags, std::string* spec);

/// --fib=on|off (default on).  False after printing why to stdout.
bool parse_fib(const Flags& flags, bool* use_fib);

/// The --shards paths' shard-invariant uniform workload: the storm
/// harness run on `storm` with every fault switched off.  Returns the
/// result and its wall-clock events/s.
std::pair<chaos::ShardedStormResult, double> run_fault_free_storm(chaos::ShardedStormParams storm);

/// main() of a CLI: a flag value that fails to parse throws, and
/// becomes "error: ..." on stderr and exit code 1 instead of an abort.
int guarded_main(int (*run)(int, char**), int argc, char** argv);

}  // namespace quartz::cli
