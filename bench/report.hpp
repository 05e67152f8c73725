// Shared scaffolding for the bench binaries.
//
// quartz_paper regenerates the paper's tables and figures (one per
// --figure) and the other binaries under bench/ run this repo's own
// studies; each prints its reproduction (the same rows/series the
// paper reports) and QUARTZ_CHECKs its acceptance bounds.  Speed is
// judged elsewhere, by the bench/suite workloads against their
// committed baselines.
//
// Besides the console text, each run emits a machine-readable
// BENCH_<id>.json capturing the reproduction rows and telemetry
// rollups (latency decompositions, metric registries, time-series
// buckets) — one self-contained artifact per figure.  See
// docs/observability.md for the schema.
//
// Flags (anything else exits 1):
//   --report-dir=<dir>   where BENCH_<id>.json is written (default ".")
//   --no-report          skip writing the JSON artifact
//   --jobs=<n>           worker threads for the binary's sweep loops
//                        (sim::SweepRunner; 0 = all hardware threads,
//                        default 1).  Results are byte-identical for
//                        every value — jobs only changes wall-clock.
// A report that cannot be written makes the binary exit 1.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"

namespace quartz::bench {

inline void print_banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("  (Quartz, SIGCOMM 2014 reproduction)\n");
  std::printf("================================================================\n");
}

/// Collects the reproduction's structured data alongside the console
/// output and writes BENCH_<id>.json at exit.  One per process.
class Report {
 public:
  static Report& instance() {
    static Report report;
    return report;
  }

  /// Read the report flags and remember the program name.  Prints the
  /// offending argument and returns false on an unknown or malformed
  /// one; `extra_keys` are the caller's own flags, accepted unread.
  bool parse_args(int argc, char** argv, std::vector<std::string> extra_keys = {}) {
    if (argc > 0) {
      program_ = argv[0];
      const std::size_t slash = program_.find_last_of('/');
      if (slash != std::string::npos) program_ = program_.substr(slash + 1);
    }
    const Flags flags = Flags::parse(argc, argv);
    bool ok = true;
    extra_keys.insert(extra_keys.end(), {"report-dir", "no-report", "jobs"});
    for (const std::string& key : flags.unknown_keys(extra_keys)) {
      std::fprintf(stderr, "%s: unrecognized argument --%s\n", program_.c_str(), key.c_str());
      ok = false;
    }
    for (const std::string& arg : flags.positional()) {
      std::fprintf(stderr, "%s: unrecognized argument %s\n", program_.c_str(), arg.c_str());
      ok = false;
    }
    if (!ok) return false;
    enabled_ = !flags.get_bool("no-report");
    directory_ = flags.get("report-dir", directory_);
    if (directory_.empty()) {
      std::fprintf(stderr, "--report-dir needs a value\n");
      return false;
    }
    try {
      const std::int64_t jobs = flags.get_int("jobs", jobs_);
      if (jobs < 0 || jobs > INT_MAX) {
        std::fprintf(stderr, "--jobs needs an integer in [0, %d]\n", INT_MAX);
        return false;
      }
      jobs_ = static_cast<int>(jobs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
    return true;
  }

  /// Worker threads for the binary's sweep loops (--jobs; 0 = all
  /// hardware threads).  Feed this to sim::SweepOptions::jobs.
  int jobs() const { return jobs_; }

  /// Print the banner and name the artifact (BENCH_<id>.json).
  void open(const std::string& id, const std::string& title) {
    id_ = id;
    title_ = title;
    print_banner(id, title);
  }

  void note(const std::string& note) {
    std::printf("note: %s\n", note.c_str());
    notes_.push_back(note);
  }

  /// Print a reproduction table and capture its rows in `section`.
  /// Cells that parse fully as numbers are exported as numbers.
  void add_table(const std::string& section, const Table& table) {
    std::printf("%s\n", table.to_text().c_str());
    Section& s = section_named(section);
    for (const auto& row : table.data()) {
      telemetry::JsonRow out;
      out.reserve(row.size());
      for (std::size_t c = 0; c < row.size(); ++c) {
        const std::string& name = c < table.header().size() ? table.header()[c] : "";
        out.emplace_back(name, cell_value(row[c]));
      }
      s.rows.push_back(std::move(out));
    }
  }

  /// Capture one structured row without printing anything.
  void add_row(const std::string& section, telemetry::JsonRow row) {
    section_named(section).rows.push_back(std::move(row));
  }

  /// Capture a latency decomposition labelled `label` (one row).
  void add_decomposition(const std::string& section, const std::string& label,
                         const telemetry::DecompositionSummary& summary) {
    telemetry::JsonRow row = summary.to_row();
    row.insert(row.begin(), {"label", telemetry::JsonValue(label)});
    section_named(section).rows.push_back(std::move(row));
  }

  /// Capture a sampler's time-series (one row per bucket; the hottest
  /// lightpath direction is flattened into hottest_* columns).
  void add_timeline(const std::string& section, const std::vector<telemetry::BucketSummary>& buckets) {
    Section& s = section_named(section);
    for (const telemetry::BucketSummary& bucket : buckets) {
      telemetry::JsonRow row = bucket.to_row();
      if (!bucket.hottest.empty()) {
        const telemetry::LinkActivity& hot = bucket.hottest.front();
        row.emplace_back("hottest_link", telemetry::JsonValue(static_cast<std::int64_t>(hot.link)));
        row.emplace_back("hottest_direction", telemetry::JsonValue(hot.direction));
        row.emplace_back("hottest_utilization", telemetry::JsonValue(hot.utilization));
      }
      s.rows.push_back(std::move(row));
    }
  }

  /// Attach a metric registry dump to the artifact (exported whole
  /// under "metrics" at write time; last call wins).
  void set_metrics(const telemetry::MetricRegistry* registry) { metrics_ = registry; }

  /// Write BENCH_<id>.json (no-op when --no-report or open() was never
  /// called).  Returns false when the file cannot be written.
  bool write() const {
    if (!enabled_ || id_.empty()) return true;
    const std::string path = directory_ + "/BENCH_" + id_ + ".json";
    std::ofstream os(path);
    telemetry::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", "quartz-bench-report/2");
    w.kv("id", id_);
    w.kv("title", title_);
    w.kv("generated_by", program_);
    w.key("notes").begin_array();
    for (const std::string& note : notes_) w.value(note);
    w.end_array();
    w.key("sections").begin_array();
    for (const Section& s : sections_) {
      w.begin_object();
      w.kv("name", s.name);
      w.key("rows").begin_array();
      for (const telemetry::JsonRow& row : s.rows) telemetry::write_row(w, row);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    if (metrics_ != nullptr) {
      w.key("metrics");
      metrics_->write_json(w);
    }
    w.end_object();
    os << '\n';
    if (!os.flush()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nreport: %s\n", path.c_str());
    return true;
  }

 private:
  struct Section {
    std::string name;
    std::vector<telemetry::JsonRow> rows;
  };

  Section& section_named(const std::string& name) {
    for (Section& s : sections_) {
      if (s.name == name) return s;
    }
    sections_.push_back({name, {}});
    return sections_.back();
  }

  static telemetry::JsonValue cell_value(const std::string& cell) {
    if (!cell.empty()) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end != nullptr && *end == '\0') return telemetry::JsonValue(v);
    }
    return telemetry::JsonValue(cell);
  }

  bool enabled_ = true;
  int jobs_ = 1;
  std::string directory_ = ".";
  std::string program_;
  std::string id_;
  std::string title_;
  std::vector<std::string> notes_;
  std::vector<Section> sections_;
  const telemetry::MetricRegistry* metrics_ = nullptr;
};

inline void print_note(const std::string& note) { Report::instance().note(note); }

/// Standard main body: parse the report flags, run the reproduction,
/// then write the BENCH_<id>.json artifact (exit 1 if that fails).
#define QUARTZ_BENCH_MAIN(report_fn)                                    \
  int main(int argc, char** argv) {                                     \
    if (!::quartz::bench::Report::instance().parse_args(argc, argv)) {  \
      return 1;                                                         \
    }                                                                   \
    report_fn();                                                        \
    return ::quartz::bench::Report::instance().write() ? 0 : 1;         \
  }

}  // namespace quartz::bench
