#include "probe.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace quartz::bench_suite {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next(int width) {
  if (width < 1 || cpus_.size() < static_cast<std::size_t>(width)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < width; ++k) {
    CPU_SET(cpus_[(turn_ + static_cast<std::size_t>(k)) % cpus_.size()], &set);
  }
  ++turn_;
  sched_setaffinity(0, sizeof(set), &set);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

RepMeter::RepMeter()
    : rep_start_(wall_seconds()), cpu_start_(cpu_seconds()), phase_start_(rep_start_) {}

void RepMeter::enter(Phase phase) {
  const double now = wall_seconds();
  const double spent = now - phase_start_;
  switch (phase_) {
    case Phase::kSetup: setup_s += spent; break;
    case Phase::kRun:
      run_s += spent;
      run_allocs += alloc_count() - allocs_start_;
      break;
    case Phase::kHarvest:
    case Phase::kIdle: break;
  }
  phase_ = phase;
  phase_start_ = now;
  if (phase == Phase::kRun) allocs_start_ = alloc_count();
}

void RepMeter::finish() {
  enter(Phase::kIdle);
  wall_s = wall_seconds() - rep_start_;
  cpu_s = cpu_seconds() - cpu_start_;
}

int Trace::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = wall_seconds();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Trace::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = wall_seconds();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Trace::count(const std::string& name, double value) { counters_.emplace_back(name, value); }

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Trace::total(const std::string& name) const {
  double sum = 0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<std::pair<std::string, double>> Trace::self_times() const {
  // Children are recorded after their parent and nest inside it, so
  // subtracting each span's duration from its parent gives self time.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& entry) { return entry.first == spans_[i].name; });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

std::string Trace::to_json() const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::string out = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f",
                  i == 0 ? "" : ",", i, s.parent, s.name.c_str(), s.start_s - origin,
                  s.end_s - origin);
    out += buf;
    if (s.events >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"events\": %.0f", s.events);
      out += buf;
    }
    out += "}";
  }
  out += "],\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, self] : self_times()) {
    std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": %.9f", first ? "" : ",", name.c_str(), self);
    out += buf;
    first = false;
  }
  out += "},\n\"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                  value);
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace quartz::bench_suite
