#include "serve/serve_loop.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::serve {
namespace {

std::vector<ServeClass> normalize_classes(std::vector<ServeClass> classes) {
  if (classes.empty()) classes.push_back(ServeClass{});
  double total = 0.0;
  for (const ServeClass& c : classes) {
    QUARTZ_REQUIRE(c.weight > 0.0, "class weights must be positive");
    QUARTZ_REQUIRE(c.deadline > 0, "class deadlines must be positive");
    total += c.weight;
  }
  for (ServeClass& c : classes) c.weight /= total;
  return classes;
}

}  // namespace

ServeLoop::Call* ServeLoop::CallTable::find(std::uint64_t id) {
  if (id < base_ || id >= end_) return nullptr;
  Slot& slot = slot_of(id);
  return slot.live ? &slot.call : nullptr;
}

void ServeLoop::CallTable::insert(std::uint64_t id, const Call& call) {
  QUARTZ_CHECK(id >= end_, "call ids must be inserted in increasing order");
  if (live_ == 0) base_ = id;
  if (id - base_ >= slots_.size()) {
    // The live span outgrew the ring: re-seat the live calls in a ring
    // twice as large (or larger).  Ids outside the span stay dead.
    std::size_t capacity = std::max<std::size_t>(slots_.size() * 2, 64);
    while (id - base_ >= capacity) capacity *= 2;
    std::vector<Slot> grown(capacity);
    for (std::uint64_t live = base_; live < end_; ++live) {
      grown[live & (capacity - 1)] = slot_of(live);
    }
    slots_.swap(grown);
  }
  slot_of(id) = Slot{call, true};
  end_ = id + 1;
  ++live_;
}

void ServeLoop::CallTable::erase(std::uint64_t id) {
  QUARTZ_CHECK(find(id) != nullptr, "erasing a call that is not outstanding");
  slot_of(id).live = false;
  --live_;
  while (base_ < end_ && !slot_of(base_).live) ++base_;
}

ServeLoop::ServeLoop(ServeConfig config)
    : config_(std::move(config)),
      classes_(normalize_classes(config_.classes)),
      topo_(topo::quartz_ring(config_.ring)),
      routing_(std::make_unique<routing::EcmpRouting>(topo_.graph)),
      oracle_(std::make_unique<routing::PinnedDetourOracle>(*routing_, topo_.quartz_rings)),
      fib_(std::make_unique<routing::Fib>(*routing_, *oracle_)),
      network_(std::make_unique<sim::Network>(topo_, *oracle_, config_.sim)),
      admission_(config_.admission, static_cast<int>(classes_.size())),
      slo_(config_.slo),
      retry_budget_(config_.retry_budget),
      rng_(config_.seed ^ 0x53455256ull) {  // "SERV"
  QUARTZ_REQUIRE(config_.duration > 0, "serving needs a positive duration");
  QUARTZ_REQUIRE(config_.timeout > 0, "a service must time out (timeout > 0)");
  QUARTZ_REQUIRE(config_.max_retries >= 0, "max_retries cannot be negative");
  QUARTZ_REQUIRE(config_.replay != nullptr || config_.arrivals_per_sec > 0.0,
                 "open-loop arrivals need a positive rate");
  // Every admitted request must resolve inside the drain window: the
  // worst case is max_retries + 1 back-to-back timeouts after the last
  // arrival, plus one timeout of slack.
  QUARTZ_REQUIRE(config_.drain >= config_.timeout * (config_.max_retries + 2),
                 "drain must cover (max_retries + 2) timeouts");

  cum_weight_.reserve(classes_.size());
  double acc = 0.0;
  for (const ServeClass& c : classes_) {
    acc += c.weight;
    cum_weight_.push_back(acc);
  }
  cum_weight_.back() = 1.0;

  QUARTZ_CHECK(!topo_.quartz_rings.empty(), "serve fabric has no Quartz ring");
  ring_switches_ = topo_.quartz_rings.front();
  hosts_by_switch_.resize(ring_switches_.size());
  for (std::size_t s = 0; s < ring_switches_.size(); ++s) {
    for (const auto& adj : topo_.graph.neighbors(ring_switches_[s])) {
      if (topo_.graph.is_host(adj.peer)) hosts_by_switch_[s].push_back(adj.peer);
    }
  }
  for (const DemandShift& shift : config_.shifts) {
    QUARTZ_REQUIRE(shift.hot_src_switch >= 0 && shift.hot_dst_switch >= 0 &&
                       static_cast<std::size_t>(shift.hot_src_switch) < ring_switches_.size() &&
                       static_cast<std::size_t>(shift.hot_dst_switch) < ring_switches_.size() &&
                       shift.hot_src_switch != shift.hot_dst_switch,
                   "demand shift needs two distinct ring switches");
    QUARTZ_REQUIRE(shift.hot_fraction >= 0.0 && shift.hot_fraction <= 1.0,
                   "hot fraction must be in [0,1]");
  }

  oracle_->attach_failure_view(&network_->failure_view());
  network_->set_fib(fib_.get());

  // Request delivery at the server: reply after the service time (a
  // kReplyTag timer packing server and client ids).  The server answers every (re)transmission it
  // sees — duplicate replies for a retried call are ignored at the
  // client by the outstanding table.
  request_task_ = network_->new_task([this](const sim::Packet& p, TimePs) {
    const auto server = static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.key.dst));
    const auto client = static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.key.src));
    network_->schedule_timer(
        network_->now() + config_.service_time,
        {this, kReplyTag, p.tag, (server << 32) | client});
  });
  reply_task_ = network_->new_task([this](const sim::Packet& p, TimePs) {
    const Call* call = outstanding_.find(p.tag);
    if (call == nullptr) return;  // duplicate or abandoned call
    complete_call(p.tag, network_->now() - call->issued_at);
  });
}

void ServeLoop::start() {
  QUARTZ_CHECK(!started_, "a ServeLoop starts once (restore replaces start)");
  started_ = true;

  if (config_.replay != nullptr) {
    // The replay walks the trace with one live timer (a = next index);
    // traces are recorded in arrival order, which the walk relies on.
    const auto& replay = *config_.replay;
    for (std::size_t i = 1; i < replay.size(); ++i) {
      QUARTZ_REQUIRE(replay[i - 1].at <= replay[i].at,
                     "replay trace must be sorted by arrival time");
    }
    if (!replay.empty() && replay.front().at < config_.duration) {
      network_->schedule_timer(replay.front().at, {this, kReplayTag, 0, 0});
    }
  } else {
    const double mean_gap_ps = 1e12 / config_.arrivals_per_sec;
    const auto first =
        std::max<TimePs>(1, static_cast<TimePs>(rng_.next_exponential(mean_gap_ps)));
    network_->schedule_timer(first, {this, kArrivalTag, 0, 0});
  }

  for (std::size_t i = 0; i < config_.shifts.size(); ++i) {
    network_->schedule_timer(config_.shifts[i].at, {this, kShiftTag, i, 0});
  }

  if (config_.slo.window <= config_.duration + config_.drain) {
    network_->schedule_timer(config_.slo.window, {this, kWindowRollTag, 0, 0});
  }
}

void ServeLoop::run_to(TimePs t) {
  QUARTZ_CHECK(started_, "start (or restore) the ServeLoop before driving it");
  network_->run_until(t);
}

ServeReport ServeLoop::finish() {
  QUARTZ_CHECK(started_ && !finished_, "a ServeLoop finishes once, after starting");
  finished_ = true;
  network_->run_until(config_.duration + config_.drain);
  return harvest();
}

ServeReport ServeLoop::run() {
  start();
  return finish();
}

void ServeLoop::on_timer(const sim::TimerEvent& event) {
  switch (event.tag) {
    case kArrivalTag:
      next_poisson_arrival();
      break;
    case kReplayTag: {
      const auto& replay = *config_.replay;
      const std::size_t index = event.a;
      const TraceEvent& ev = replay[index];
      QUARTZ_REQUIRE(ev.cls >= 0 && static_cast<std::size_t>(ev.cls) < classes_.size(),
                     "trace event class out of range");
      on_arrival(ev);
      for (std::size_t next = index + 1; next < replay.size(); ++next) {
        if (replay[next].at >= config_.duration) continue;
        network_->schedule_timer(replay[next].at, {this, kReplayTag, next, 0});
        break;
      }
      break;
    }
    case kShiftTag:
      active_shift_ = static_cast<int>(event.a);
      if (config_.reconfigure_on_shift) {
        network_->schedule_timer(network_->now() + config_.reconfigure_delay,
                                 {this, kRegroomTag, 0, 0});
      }
      break;
    case kRegroomTag:
      regroom_now();
      break;
    case kWindowRollTag: {
      roll_window();
      const TimePs next = network_->now() + config_.slo.window;
      if (next <= config_.duration + config_.drain) {
        network_->schedule_timer(next, {this, kWindowRollTag, 0, 0});
      }
      break;
    }
    case kReplyTag: {
      const auto server = static_cast<topo::NodeId>(event.b >> 32);
      const auto client = static_cast<topo::NodeId>(event.b & 0xFFFFFFFFull);
      network_->send(server, client, config_.reply_size, reply_task_,
                     routing::mix_hash(event.a ^ 0x5245504Cull), event.a);  // "REPL"
      break;
    }
    case kTimeoutTag:
      on_timeout(event.a, static_cast<int>(event.b));
      break;
    default:
      QUARTZ_CHECK(false, "unknown serve timer tag");
  }
}

ServeReport ServeLoop::harvest() {
  ServeReport report;
  report.arrivals = arrivals_;
  report.admitted = admitted_;
  report.shed_class = shed_class_;
  report.shed_limit = shed_limit_;
  report.completed = completed_;
  report.late = late_;
  report.in_deadline = completed_ - late_;
  report.failed = failed_;
  report.retries = retries_;
  report.budget_denied = budget_denied_;
  report.hopeless_dropped = hopeless_dropped_;
  report.outstanding_at_end = outstanding_.size();
  report.goodput_per_sec =
      static_cast<double>(report.in_deadline) / to_seconds(config_.duration);
  if (!slo_.cumulative_us().empty()) {
    report.p50_us = slo_.cumulative_us().percentile(50.0);
    report.p99_us = slo_.cumulative_us().percentile(99.0);
    report.p999_us = slo_.cumulative_us().percentile(99.9);
  }
  report.windows_closed = slo_.windows_closed();
  report.windows_breached = slo_.windows_breached();
  report.final_limit = admission_.limit();
  report.knee_limit = admission_.knee_limit();
  report.knee_goodput = admission_.knee_goodput();
  report.reconfigurations = reconfigurations_;
  report.pins_applied = pins_applied_;
  report.pins_rejected = pins_rejected_;
  report.retry_amplification =
      first_sends_ == 0 ? 1.0
                        : static_cast<double>(total_sends_) / static_cast<double>(first_sends_);
  report.conservation_ok =
      outstanding_.empty() && admitted_ == completed_ + failed_ &&
      arrivals_ == admitted_ + shed_class_ + shed_limit_;
  return report;
}

void ServeLoop::next_poisson_arrival() {
  if (network_->now() >= config_.duration) return;
  on_arrival(sample_arrival(network_->now()));
  const double mean_gap_ps = 1e12 / config_.arrivals_per_sec;
  const auto gap = std::max<TimePs>(1, static_cast<TimePs>(rng_.next_exponential(mean_gap_ps)));
  network_->schedule_timer(network_->now() + gap, {this, kArrivalTag, 0, 0});
}

TraceEvent ServeLoop::sample_arrival(TimePs when) {
  TraceEvent ev;
  ev.at = when;
  const double u = rng_.next_double();
  ev.cls = static_cast<int>(
      std::lower_bound(cum_weight_.begin(), cum_weight_.end(), u) - cum_weight_.begin());
  ev.cls = std::min<int>(ev.cls, static_cast<int>(classes_.size()) - 1);

  std::size_t src_sw = 0;
  std::size_t dst_sw = 0;
  if (active_shift_ >= 0 &&
      rng_.next_double() <
          config_.shifts[static_cast<std::size_t>(active_shift_)].hot_fraction) {
    const DemandShift& shift = config_.shifts[static_cast<std::size_t>(active_shift_)];
    src_sw = static_cast<std::size_t>(shift.hot_src_switch);
    dst_sw = static_cast<std::size_t>(shift.hot_dst_switch);
  } else {
    const std::size_t n = ring_switches_.size();
    src_sw = rng_.next_below(n);
    dst_sw = rng_.next_below(n);
    while (dst_sw == src_sw) dst_sw = rng_.next_below(n);
  }
  const auto& src_hosts = hosts_by_switch_[src_sw];
  const auto& dst_hosts = hosts_by_switch_[dst_sw];
  QUARTZ_CHECK(!src_hosts.empty() && !dst_hosts.empty(), "ring switch has no hosts");
  ev.src = src_hosts[rng_.next_below(src_hosts.size())];
  ev.dst = dst_hosts[rng_.next_below(dst_hosts.size())];
  return ev;
}

void ServeLoop::on_arrival(const TraceEvent& ev) {
  ++arrivals_;
  trace_.push_back(ev);
  if (config_.use_admission) {
    switch (admission_.admit(ev.cls, static_cast<int>(outstanding_.size()))) {
      case AdmissionController::Decision::kShedClass:
        ++shed_class_;
        return;
      case AdmissionController::Decision::kOverLimit:
        ++shed_limit_;
        return;
      case AdmissionController::Decision::kAdmit:
        break;
    }
  }
  ++admitted_;
  const std::uint64_t id = next_id_++;
  Call call;
  call.cls = ev.cls;
  call.src = ev.src;
  call.dst = ev.dst;
  call.issued_at = network_->now();
  call.deadline = network_->now() + classes_[static_cast<std::size_t>(ev.cls)].deadline;
  call.flow_id = rng_.next_u64();
  outstanding_.insert(id, call);
  send_attempt(id);
}

void ServeLoop::send_attempt(std::uint64_t id) {
  Call* found = outstanding_.find(id);
  QUARTZ_CHECK(found != nullptr, "sending an attempt for an unknown call");
  Call& call = *found;
  ++total_sends_;
  if (call.attempt == 0) {
    ++first_sends_;
    retry_budget_.on_first_attempt();
  }
  // Re-hash per attempt so a retry may take a different equal-cost path
  // than the transmission that just timed out.
  network_->send(call.src, call.dst, config_.request_size, request_task_,
                 call.flow_id + static_cast<std::uint64_t>(call.attempt), id);
  network_->schedule_timer(network_->now() + config_.timeout,
                           {this, kTimeoutTag, id, static_cast<std::uint64_t>(call.attempt)});
}

void ServeLoop::on_timeout(std::uint64_t id, int attempt) {
  Call* found = outstanding_.find(id);
  if (found == nullptr || found->attempt != attempt) return;  // resolved or retried
  Call& call = *found;
  release_retry_slot(call);

  // Deadline propagation: a retry whose reply cannot possibly arrive in
  // time only adds load — drop the call instead.
  const TimePs now = network_->now();
  const bool hopeless =
      now >= call.deadline ||
      (min_rtt_us_ >= 0.0 && now + static_cast<TimePs>(min_rtt_us_ * 1e6) > call.deadline);
  if (hopeless) {
    ++hopeless_dropped_;
    fail_call(id);
    return;
  }
  if (call.attempt >= config_.max_retries) {
    fail_call(id);
    return;
  }
  if (config_.use_retry_budget) {
    if (!retry_budget_.try_acquire()) {
      ++budget_denied_;
      fail_call(id);
      return;
    }
    call.holding_retry_slot = true;
  }
  ++call.attempt;
  ++retries_;
  send_attempt(id);
}

void ServeLoop::complete_call(std::uint64_t id, TimePs latency) {
  Call* found = outstanding_.find(id);
  QUARTZ_CHECK(found != nullptr, "completing an unknown call");
  Call& call = *found;
  release_retry_slot(call);
  const bool in_deadline = network_->now() <= call.deadline;
  const double us = to_microseconds(latency);
  slo_.record(us, in_deadline);
  if (min_rtt_us_ < 0.0 || us < min_rtt_us_) min_rtt_us_ = us;
  ++completed_;
  if (!in_deadline) ++late_;
  outstanding_.erase(id);
}

void ServeLoop::fail_call(std::uint64_t id) {
  Call* found = outstanding_.find(id);
  QUARTZ_CHECK(found != nullptr, "failing an unknown call");
  release_retry_slot(*found);
  ++failed_;
  outstanding_.erase(id);
}

void ServeLoop::release_retry_slot(Call& call) {
  if (!call.holding_retry_slot) return;
  retry_budget_.release();
  call.holding_retry_slot = false;
}

void ServeLoop::regroom_now() {
  oracle_->begin_regroom();
  for (const auto& [src, dst] : live_pins_) oracle_->stage_unpin(src, dst);
  live_pins_.clear();
  if (active_shift_ >= 0) {
    const DemandShift& shift = config_.shifts[static_cast<std::size_t>(active_shift_)];
    // Spread the hot pair's demand over two-hop detours via every other
    // ring switch, round-robin across the host pairs (Valiant-style
    // re-grooming of one saturated lightpath).
    std::vector<topo::NodeId> vias;
    for (std::size_t s = 0; s < ring_switches_.size(); ++s) {
      if (s != static_cast<std::size_t>(shift.hot_src_switch) &&
          s != static_cast<std::size_t>(shift.hot_dst_switch)) {
        vias.push_back(ring_switches_[s]);
      }
    }
    if (!vias.empty()) {
      std::size_t next_via = 0;
      const auto& src_hosts = hosts_by_switch_[static_cast<std::size_t>(shift.hot_src_switch)];
      const auto& dst_hosts = hosts_by_switch_[static_cast<std::size_t>(shift.hot_dst_switch)];
      for (const topo::NodeId src : src_hosts) {
        for (const topo::NodeId dst : dst_hosts) {
          oracle_->stage_pin(src, dst, vias[next_via]);
          next_via = (next_via + 1) % vias.size();
          live_pins_.emplace_back(src, dst);
        }
      }
    }
  }
  const auto result = oracle_->commit_regroom();
  ++reconfigurations_;
  pins_applied_ += static_cast<std::uint64_t>(result.applied);
  pins_rejected_ += static_cast<std::uint64_t>(result.rejected);
}

void ServeLoop::roll_window() {
  const telemetry::SloWindow& window = slo_.roll(network_->now());
  if (config_.use_admission) admission_.on_window(window);
}

void ServeLoop::save_snapshot(snapshot::Writer& w) const {
  QUARTZ_REQUIRE(started_, "save requires a started ServeLoop");
  sim::HandlerMap handlers;
  handlers.timers.push_back(const_cast<ServeLoop*>(this));

  // Config echo: restore refuses a snapshot from a different service.
  w.begin_chunk(snapshot::chunk_id("SRVC"));
  w.put_u64(config_.seed);
  w.put_i64(config_.duration);
  w.put_i64(config_.drain);
  w.put_f64(config_.arrivals_per_sec);
  w.put_u64(classes_.size());
  w.put_u64(config_.shifts.size());
  w.put_u64(config_.replay != nullptr ? config_.replay->size() : 0);
  w.end_chunk();

  // Serve bookkeeping.  The outstanding table is serialized in call id
  // order so the snapshot bytes are a pure function of state.
  w.begin_chunk(snapshot::chunk_id("SRVS"));
  w.put_rng(rng_);
  w.put_u64(next_id_);
  w.put_f64(min_rtt_us_);
  w.put_i32(active_shift_);
  w.put_u64(arrivals_);
  w.put_u64(admitted_);
  w.put_u64(shed_class_);
  w.put_u64(shed_limit_);
  w.put_u64(completed_);
  w.put_u64(late_);
  w.put_u64(failed_);
  w.put_u64(retries_);
  w.put_u64(budget_denied_);
  w.put_u64(hopeless_dropped_);
  w.put_u64(first_sends_);
  w.put_u64(total_sends_);
  w.put_u64(reconfigurations_);
  w.put_u64(pins_applied_);
  w.put_u64(pins_rejected_);
  w.put_u64(outstanding_.size());
  outstanding_.for_each([&w](std::uint64_t id, const Call& call) {
    w.put_u64(id);
    w.put_i32(call.cls);
    w.put_i32(call.src);
    w.put_i32(call.dst);
    w.put_i64(call.issued_at);
    w.put_i64(call.deadline);
    w.put_u64(call.flow_id);
    w.put_i32(call.attempt);
    w.put_bool(call.holding_retry_slot);
  });
  w.put_u64(trace_.size());
  for (const TraceEvent& ev : trace_) {
    w.put_i64(ev.at);
    w.put_i32(ev.cls);
    w.put_i32(ev.src);
    w.put_i32(ev.dst);
  }
  w.put_u64(live_pins_.size());
  for (const auto& [src, dst] : live_pins_) {
    w.put_i32(src);
    w.put_i32(dst);
  }
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("ADMC"));
  admission_.save(w);
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("SLO "));
  slo_.save(w);
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("RTRY"));
  retry_budget_.save(w);
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("ORCL"));
  oracle_->save(w);
  w.end_chunk();

  // The network chunk (embedding the engine) goes last, mirroring the
  // restore order: components first, then the events pointing at them.
  w.begin_chunk(snapshot::chunk_id("NETW"));
  network_->save(w, handlers);
  w.end_chunk();
}

void ServeLoop::restore_snapshot(snapshot::Reader& r) {
  QUARTZ_REQUIRE(!started_, "restore requires a freshly constructed (never started) ServeLoop");
  started_ = true;
  restored_ = true;
  sim::HandlerMap handlers;
  handlers.timers.push_back(this);

  r.open_chunk(snapshot::chunk_id("SRVC"));
  QUARTZ_REQUIRE(r.get_u64() == config_.seed && r.get_i64() == config_.duration &&
                     r.get_i64() == config_.drain && r.get_f64() == config_.arrivals_per_sec &&
                     r.get_u64() == classes_.size() && r.get_u64() == config_.shifts.size() &&
                     r.get_u64() ==
                         (config_.replay != nullptr ? config_.replay->size() : 0),
                 "snapshot was taken from a service with different config");
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("SRVS"));
  r.get_rng(rng_);
  next_id_ = r.get_u64();
  min_rtt_us_ = r.get_f64();
  active_shift_ = r.get_i32();
  arrivals_ = r.get_u64();
  admitted_ = r.get_u64();
  shed_class_ = r.get_u64();
  shed_limit_ = r.get_u64();
  completed_ = r.get_u64();
  late_ = r.get_u64();
  failed_ = r.get_u64();
  retries_ = r.get_u64();
  budget_denied_ = r.get_u64();
  hopeless_dropped_ = r.get_u64();
  first_sends_ = r.get_u64();
  total_sends_ = r.get_u64();
  reconfigurations_ = r.get_u64();
  pins_applied_ = r.get_u64();
  pins_rejected_ = r.get_u64();
  const std::uint64_t calls = r.get_u64();
  for (std::uint64_t i = 0; i < calls; ++i) {
    const std::uint64_t id = r.get_u64();
    Call call;
    call.cls = r.get_i32();
    call.src = r.get_i32();
    call.dst = r.get_i32();
    call.issued_at = r.get_i64();
    call.deadline = r.get_i64();
    call.flow_id = r.get_u64();
    call.attempt = r.get_i32();
    call.holding_retry_slot = r.get_bool();
    outstanding_.insert(id, call);
  }
  const std::uint64_t traced = r.get_count(sizeof(std::int64_t) + 3 * sizeof(std::int32_t));
  trace_.clear();
  trace_.reserve(traced);
  for (std::uint64_t i = 0; i < traced; ++i) {
    TraceEvent ev;
    ev.at = r.get_i64();
    ev.cls = r.get_i32();
    ev.src = r.get_i32();
    ev.dst = r.get_i32();
    trace_.push_back(ev);
  }
  const std::uint64_t pins = r.get_count(2 * sizeof(std::int32_t));
  live_pins_.clear();
  live_pins_.reserve(pins);
  for (std::uint64_t i = 0; i < pins; ++i) {
    const topo::NodeId src = r.get_i32();
    const topo::NodeId dst = r.get_i32();
    live_pins_.emplace_back(src, dst);
  }
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("ADMC"));
  admission_.restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("SLO "));
  slo_.restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("RTRY"));
  retry_budget_.restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("ORCL"));
  oracle_->restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("NETW"));
  network_->restore(r, handlers);
  r.close_chunk();
}

std::optional<std::uint64_t> ServeLoop::restore_latest(const std::string& dir,
                                                       std::string* warnings) {
  auto reader = snapshot::load_latest_intact(dir, warnings);
  if (!reader.has_value()) return std::nullopt;
  restore_snapshot(*reader);
  return reader->sequence();
}

ServeReport ServeLoop::run_with_checkpoints(const CheckpointOptions& options) {
  QUARTZ_REQUIRE(!options.dir.empty(), "checkpointing needs a directory");
  QUARTZ_REQUIRE(options.every > 0, "checkpoint cadence must be positive");
  if (!started_) start();
  const TimePs end = config_.duration + config_.drain;
  std::uint64_t sequence = options.start_sequence;
  // Resume on the cadence grid: the next boundary strictly after now.
  TimePs next = (network_->now() / options.every + 1) * options.every;
  while (next < end) {
    run_to(next);
    snapshot::Writer writer;
    save_snapshot(writer);
    ++sequence;
    snapshot::write_file_atomic(snapshot::checkpoint_path(options.dir, sequence), writer,
                                sequence);
    next += options.every;
  }
  return finish();
}

void ServeLoop::publish_metrics(telemetry::MetricRegistry& registry,
                                const std::string& prefix) const {
  registry.counter(prefix + ".arrivals").inc(arrivals_);
  registry.counter(prefix + ".admitted").inc(admitted_);
  registry.counter(prefix + ".shed_class").inc(shed_class_);
  registry.counter(prefix + ".shed_limit").inc(shed_limit_);
  registry.counter(prefix + ".failed").inc(failed_);
  registry.counter(prefix + ".retries").inc(retries_);
  registry.counter(prefix + ".retry_budget_denied").inc(budget_denied_);
  registry.counter(prefix + ".hopeless_dropped").inc(hopeless_dropped_);
  registry.counter(prefix + ".reconfigurations").inc(reconfigurations_);
  registry.counter(prefix + ".pins_applied").inc(pins_applied_);
  registry.counter(prefix + ".pins_rejected").inc(pins_rejected_);
  registry.gauge(prefix + ".admission_limit").set(admission_.limit());
  registry.gauge(prefix + ".shed_classes").set(admission_.shed_classes());
  registry.gauge(prefix + ".retry_amplification")
      .set(first_sends_ == 0 ? 1.0
                             : static_cast<double>(total_sends_) /
                                   static_cast<double>(first_sends_));
  slo_.publish(registry, prefix + ".slo");
}

}  // namespace quartz::serve
