#include "telemetry/metrics.hpp"

namespace quartz::telemetry {

Counter& MetricRegistry::counter(const std::string& name) {
  if (!enabled_) return scratch_counter_;
  return counters_[name];
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  if (!enabled_) return scratch_gauge_;
  return gauges_[name];
}

LatencyRecorder& MetricRegistry::latency(const std::string& name) {
  if (!enabled_) return scratch_latency_;
  return latencies_[name];
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
  for (const auto& [name, g] : other.gauges_) gauge(name).set(g.value());
  for (const auto& [name, l] : other.latencies_) latency(name).merge(l);
}

void MetricRegistry::write_csv(std::ostream& os) const {
  os << "name,kind,count,value,p50_us,p99_us,max_us\n";
  for (const auto& [name, c] : counters_) {
    os << csv_escape(name) << ",counter,," << c.value() << ",,,\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << csv_escape(name) << ",gauge,," << JsonValue(g.value()).to_csv_cell() << ",,,\n";
  }
  for (const auto& [name, l] : latencies_) {
    os << csv_escape(name) << ",latency," << l.count() << ",";
    if (l.empty()) {
      os << ",,,\n";
    } else {
      os << JsonValue(l.mean_us()).to_csv_cell() << ","
         << JsonValue(l.percentile_us(50)).to_csv_cell() << ","
         << JsonValue(l.percentile_us(99)).to_csv_cell() << ","
         << JsonValue(l.max_us()).to_csv_cell() << "\n";
    }
  }
}

void MetricRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("latencies_us").begin_object();
  for (const auto& [name, l] : latencies_) {
    w.key(name).begin_object();
    w.kv("count", static_cast<std::uint64_t>(l.count()));
    if (!l.empty()) {
      w.kv("mean", l.mean_us());
      w.kv("p50", l.percentile_us(50));
      w.kv("p99", l.percentile_us(99));
      w.kv("max", l.max_us());
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace quartz::telemetry
