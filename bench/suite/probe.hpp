// Host-side meters for the benchmark harness: clocks, CPU time, heap
// allocations, peak RSS, and an in-memory span trace.
//
// Everything here observes the simulator from outside: the harness
// wraps its own calls into each layer, never code under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace quartz::bench_suite {

/// Heap allocations made by the whole process so far (a counting
/// global operator new, defined in probe.cpp).
std::uint64_t alloc_count();

/// User + system CPU seconds of the whole process, all threads.
double cpu_seconds();

/// Peak resident set size (VmHWM) in MiB; 0 where /proc is missing.
double peak_rss_mib();

inline double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rotates the calling thread over the CPUs the process may use.  On a
/// shared machine one CPU can run far slower than another for seconds
/// at a time (a busy sibling thread); a run that stayed where the
/// scheduler first put it would measure that CPU's luck.  Pinning each
/// rep to the next CPU in turn makes every run sample all of them.
/// Threads the pinned thread spawns inherit its CPU set.
class CpuRotation {
 public:
  CpuRotation();
  /// Pin to `width` consecutive allowed CPUs, starting one further on
  /// than the previous call.  No-op when fewer than `width` are allowed.
  void next(int width);

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// FNV-1a over 64-bit words; doubles enter by their bit pattern.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Accumulates host time per phase of one rep: set-up (everything
/// before the first run call) and run (inside run_until / run_to);
/// harvest and idle time count only toward the rep's wall time.  Phases
/// may alternate (a sweep sets up and runs many points); each phase's
/// total is the sum of its intervals.  Heap allocations are counted
/// over the run phase only.
class RepMeter {
 public:
  enum class Phase { kIdle, kSetup, kRun, kHarvest };

  RepMeter();
  void enter(Phase phase);
  /// Close the open phase; fill wall/cpu for the whole rep.
  void finish();

  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t run_allocs = 0;

 private:
  Phase phase_ = Phase::kIdle;
  double rep_start_ = 0;
  double cpu_start_ = 0;
  double phase_start_ = 0;
  std::uint64_t allocs_start_ = 0;
};

/// In-memory span recorder for the traced pass.  A span has a name, a
/// parent, and start/end host times; spans nest by scope.  Counters are
/// recorded at the same boundaries.  A null Trace* disables recording,
/// so untraced reps take no clock reads for it.
class Trace {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
    /// Work done inside the span (engine events), or -1 when unknown.
    double events = -1;
  };

  int open(const char* name);
  void close(int id);
  void set_events(int id, double events) { spans_[static_cast<std::size_t>(id)].events = events; }
  /// A run-level counter, recorded once the traced rep is done.
  void count(const std::string& name, double value);

  /// Durations (s) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Total duration of spans called `name`.
  double total(const std::string& name) const;
  /// Self time per span name: each span's duration minus the part its
  /// child spans cover, summed by name, in first-seen order.
  std::vector<std::pair<std::string, double>> self_times() const;

  /// The trace as JSON: spans (times relative to the first span),
  /// per-name self times, and counters.
  std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span; a no-op when the trace is null.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int id_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

}  // namespace quartz::bench_suite
