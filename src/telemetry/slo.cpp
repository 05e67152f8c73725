#include "telemetry/slo.hpp"

#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::telemetry {

SloTracker::SloTracker(Config config) : config_(config) {
  QUARTZ_REQUIRE(config.window > 0, "SLO window must be positive");
}

void SloTracker::record(double latency_us, bool in_deadline) {
  QUARTZ_REQUIRE(latency_us >= 0.0, "latency cannot be negative");
  window_samples_.add(latency_us);
  if (in_deadline) ++window_in_deadline_;
  cumulative_.add(latency_us);
  ++total_completed_;
  if (in_deadline) ++total_in_deadline_;
}

const SloWindow& SloTracker::roll(TimePs now) {
  QUARTZ_CHECK(now >= window_start_, "SLO window closed before it opened");
  SloWindow w;
  w.start = window_start_;
  w.end = now;
  w.completed = window_samples_.count();
  w.in_deadline = window_in_deadline_;
  if (!window_samples_.empty()) {
    w.p50_us = window_samples_.percentile(50.0);
    w.p99_us = window_samples_.percentile(99.0);
    w.p999_us = window_samples_.percentile(99.9);
    w.max_us = window_samples_.max();
    w.p99_breach = config_.budget_p99_us > 0.0 && w.p99_us > config_.budget_p99_us;
    w.p999_breach = config_.budget_p999_us > 0.0 && w.p999_us > config_.budget_p999_us;
  }
  const double span_sec = to_seconds(now - window_start_);
  w.goodput_per_sec = span_sec > 0.0 ? static_cast<double>(w.in_deadline) / span_sec : 0.0;

  last_ = w;
  ++windows_closed_;
  if (w.breached()) {
    ++windows_breached_;
    ++consecutive_breaches_;
  } else {
    consecutive_breaches_ = 0;
  }

  window_start_ = now;
  window_samples_.clear();
  window_in_deadline_ = 0;
  return last_;
}

void SloTracker::publish(MetricRegistry& registry, const std::string& prefix) const {
  registry.gauge(prefix + ".window_p99_us").set(last_.p99_us);
  registry.gauge(prefix + ".window_p999_us").set(last_.p999_us);
  registry.gauge(prefix + ".window_goodput_per_sec").set(last_.goodput_per_sec);
  registry.counter(prefix + ".windows_closed").inc(windows_closed_);
  registry.counter(prefix + ".windows_breached").inc(windows_breached_);
  registry.counter(prefix + ".completed").inc(total_completed_);
  registry.counter(prefix + ".in_deadline").inc(total_in_deadline_);
  auto& lat = registry.latency(prefix + ".latency_us");
  for (const double us : cumulative_.samples()) lat.add_us(us);
}

namespace {

void save_window(snapshot::Writer& w, const SloWindow& window) {
  w.put_i64(window.start);
  w.put_i64(window.end);
  w.put_u64(window.completed);
  w.put_u64(window.in_deadline);
  w.put_f64(window.p50_us);
  w.put_f64(window.p99_us);
  w.put_f64(window.p999_us);
  w.put_f64(window.max_us);
  w.put_f64(window.goodput_per_sec);
  w.put_bool(window.p99_breach);
  w.put_bool(window.p999_breach);
}

SloWindow restore_window(snapshot::Reader& r) {
  SloWindow window;
  window.start = r.get_i64();
  window.end = r.get_i64();
  window.completed = r.get_u64();
  window.in_deadline = r.get_u64();
  window.p50_us = r.get_f64();
  window.p99_us = r.get_f64();
  window.p999_us = r.get_f64();
  window.max_us = r.get_f64();
  window.goodput_per_sec = r.get_f64();
  window.p99_breach = r.get_bool();
  window.p999_breach = r.get_bool();
  return window;
}

}  // namespace

void SloTracker::save(snapshot::Writer& w) const {
  w.put_i64(window_start_);
  w.put_f64_vec(window_samples_.samples());
  w.put_u64(window_in_deadline_);
  save_window(w, last_);
  w.put_u64(windows_closed_);
  w.put_u64(windows_breached_);
  w.put_i32(consecutive_breaches_);
  w.put_f64_vec(cumulative_.samples());
  w.put_u64(total_completed_);
  w.put_u64(total_in_deadline_);
}

void SloTracker::restore(snapshot::Reader& r) {
  window_start_ = r.get_i64();
  window_samples_.assign(r.get_f64_vec());
  window_in_deadline_ = r.get_u64();
  last_ = restore_window(r);
  windows_closed_ = r.get_u64();
  windows_breached_ = r.get_u64();
  consecutive_breaches_ = r.get_i32();
  cumulative_.assign(r.get_f64_vec());
  total_completed_ = r.get_u64();
  total_in_deadline_ = r.get_u64();
}

}  // namespace quartz::telemetry
