#include "cli.hpp"

#include <chrono>
#include <exception>
#include <string_view>

#include "telemetry/decode.hpp"
#include "topo/composite.hpp"

namespace quartz::cli {

RunOutputs::RunOutputs(const Flags& flags)
    : metrics_path_(flags.get("metrics-out")),
      mode_(flags.get("telemetry", "off")),
      metrics_(flags.has("metrics-out")) {}

bool RunOutputs::valid(std::FILE* messages) const {
  if (mode_ != "off" && mode_ != "binary" && mode_ != "jsonl") {
    std::fprintf(messages, "--telemetry must be binary, jsonl or off, got '%s'\n", mode_.c_str());
    return false;
  }
  if (mode_ != "off" && !metrics_.enabled()) {
    std::fprintf(messages, "--telemetry=%s needs --metrics-out to derive its output path\n",
                 mode_.c_str());
    return false;
  }
  return true;
}

bool RunOutputs::open(sim::Network* live) {
  if (mode_ == "off") return true;
  file_ = std::make_unique<telemetry::StreamFile>(metrics_path_ + ".qtz");
  if (!file_->ok()) return failed("cannot open", ".qtz");
  if (mode_ == "jsonl") {
    events_.open(metrics_path_ + ".events.jsonl", std::ios::binary);
    if (!events_) return failed("cannot open", ".events.jsonl");
  }
  if (live != nullptr) {
    live_ = std::make_unique<telemetry::BinaryStream>(
        *file_, telemetry::BinaryStream::Options{.background = true});
    live_sink_ = std::make_unique<telemetry::BinaryStreamSink>(*live_);
    live_net_ = live;
    live->set_stream_sink(live_sink_.get());
  }
  return true;
}

bool RunOutputs::finish() {
  if (metrics_.enabled()) {
    std::ofstream out(metrics_path_);
    if (!out) return failed("cannot open", "");
    metrics_.write_csv(out);
    std::printf("metrics: %s\n", metrics_path_.c_str());
  }
  if (file_ == nullptr) return true;
  if (live_ != nullptr) {
    live_net_->set_stream_sink(nullptr);
    live_->finish();
  }
  if (!file_->ok()) return failed("cannot write", ".qtz");
  std::printf("event stream: %s.qtz (%llu pages, %llu bytes)\n", metrics_path_.c_str(),
              static_cast<unsigned long long>(file_->pages()),
              static_cast<unsigned long long>(file_->bytes()));
  if (!events_.is_open()) return true;
  // Runs that share the capture interleave in the decoder's (time,
  // stream, seq) order, the same for any worker count.
  std::ifstream capture(metrics_path_ + ".qtz", std::ios::binary);
  const telemetry::DecodeStats stats = telemetry::decode_jsonl({&capture}, events_);
  events_.flush();
  if (!events_ || !stats.gaps.empty()) {
    const char* path = metrics_path_.c_str();
    std::fprintf(stderr, "cannot decode %s.qtz into %s.events.jsonl\n", path, path);
    return false;
  }
  std::printf("events: %s.events.jsonl\n", metrics_path_.c_str());
  return true;
}

bool RunOutputs::failed(const char* what, const char* suffix) const {
  std::fprintf(stderr, "%s %s%s\n", what, metrics_path_.c_str(), suffix);
  return false;
}

bool parse_topology(const Flags& flags, std::string* spec) {
  spec->clear();
  if (!flags.has("topology")) return true;
  const std::string topology = flags.get("topology");
  constexpr std::string_view kPrefix = "composite:";
  if (topology.rfind(kPrefix, 0) != 0) {
    std::printf("--topology only knows composite:<spec>, got '%s'\n", topology.c_str());
    return false;
  }
  *spec = topology.substr(kPrefix.size());
  std::string error;
  if (!topo::CompositeSpec::parse(*spec, &error).has_value()) {
    std::printf("bad composite spec '%s': %s\n", spec->c_str(), error.c_str());
    return false;
  }
  return true;
}

bool parse_fib(const Flags& flags, bool* use_fib) {
  const std::string mode = flags.get("fib", "on");
  if (mode != "on" && mode != "off") {
    std::printf("--fib must be 'on' or 'off', got '%s'\n", mode.c_str());
    return false;
  }
  *use_fib = mode == "on";
  return true;
}

std::pair<chaos::ShardedStormResult, double> run_fault_free_storm(chaos::ShardedStormParams storm) {
  storm.cuts = storm.gray_links = storm.flapping_links = 0;
  storm.storm_start = storm.storm_end = 0;
  const auto start = std::chrono::steady_clock::now();
  const chaos::ShardedStormResult result = chaos::run_storm(storm);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return {result, wall_s > 0.0 ? static_cast<double>(result.events) / wall_s : 0.0};
}

int guarded_main(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace quartz::cli
