// A long-running service loop on a Quartz ring: open-loop arrivals,
// closed-loop admission, retry budgets and live re-grooming.
//
// Batch experiments end; a service does not.  ServeLoop keeps a fabric
// alive on the event engine and streams an open-loop request process at
// it (Poisson arrivals, or a replayed trace of a previous run), while
// three defenses keep the SLO intact as offered load and topology move
// underneath it:
//
//  * admission — an AdmissionController probes offered concurrency to
//    the goodput knee and sheds priority classes on sustained p99
//    breach (requests over the limit or in a shed class are rejected at
//    the door instead of queueing to death);
//  * retry budgets — timeouts retry only while a shared
//    sim::RetryBudget has tokens, and never once the deadline makes
//    the retry hopeless (deadline propagation), so loss cannot amplify
//    load into an already-overloaded ring; and
//  * live re-grooming — scripted demand shifts concentrate traffic on
//    one switch pair; the loop reacts by staging detour pins that
//    spread the hot demand across intermediate ring switches and
//    committing them make-before-break (PinnedDetourOracle regroom),
//    which bumps the routing epoch and lazily invalidates the FIB.
//
// Every arrival is recorded, so a run's trace can be replayed verbatim
// against a different configuration (the bench duels controlled vs
// uncontrolled on identical arrivals).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "routing/fib.hpp"
#include "routing/oracle.hpp"
#include "serve/admission.hpp"
#include "sim/network.hpp"
#include "sim/retry_budget.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "topo/builders.hpp"

namespace quartz::serve {

/// A priority class (index order is priority order: 0 = highest, shed
/// last).
struct ServeClass {
  std::string name = "default";
  /// Share of arrivals (weights are normalised across classes).
  double weight = 1.0;
  /// Per-request deadline; completions after it are late (not goodput).
  TimePs deadline = milliseconds(2);
};

/// One request arrival — the unit of the replayable trace.
struct TraceEvent {
  TimePs at = 0;
  int cls = 0;
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
};

/// A scripted change in the traffic matrix: from `at`, `hot_fraction`
/// of new arrivals go from a host on `hot_src_switch` to a host on
/// `hot_dst_switch` (switch indices into the ring).
struct DemandShift {
  TimePs at = 0;
  int hot_src_switch = 0;
  int hot_dst_switch = 1;
  double hot_fraction = 0.8;
};

struct ServeConfig {
  topo::QuartzRingParams ring;
  /// Arrivals stream over [0, duration); the loop then drains until
  /// duration + drain so every admitted request resolves.
  TimePs duration = milliseconds(20);
  TimePs drain = milliseconds(10);
  /// Open-loop offered load (ignored when `replay` is set).
  double arrivals_per_sec = 100'000.0;
  std::vector<ServeClass> classes;  ///< empty = one default class
  Bits request_size = sim::kDefaultPacketSize;
  Bits reply_size = sim::kDefaultPacketSize;
  /// Server-side service time before the reply.
  TimePs service_time = 0;
  /// Client-side RPC timeout (must be positive: a service retries).
  TimePs timeout = microseconds(500);
  int max_retries = 3;

  // --- defenses (each independently switchable for duels) ------------
  bool use_admission = true;
  AdmissionController::Config admission;
  bool use_retry_budget = true;
  sim::RetryBudget::Config retry_budget;
  telemetry::SloTracker::Config slo;

  // --- demand shifts and re-grooming ---------------------------------
  std::vector<DemandShift> shifts;
  /// React to each shift with a make-before-break regroom this long
  /// after the shift lands (0 = immediately).
  bool reconfigure_on_shift = true;
  TimePs reconfigure_delay = microseconds(200);

  /// Replay these arrivals instead of sampling Poisson ones; the
  /// pointer must outlive run().
  const std::vector<TraceEvent>* replay = nullptr;

  std::uint64_t seed = 1;
  sim::SimConfig sim;
};

struct ServeReport {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_class = 0;  ///< rejected: priority class shed
  std::uint64_t shed_limit = 0;  ///< rejected: concurrency limit
  std::uint64_t completed = 0;   ///< reply accepted (in deadline or late)
  std::uint64_t in_deadline = 0;
  std::uint64_t late = 0;
  std::uint64_t failed = 0;  ///< abandoned: retries exhausted, denied or hopeless
  std::uint64_t retries = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t hopeless_dropped = 0;  ///< retries dropped by deadline propagation
  std::uint64_t outstanding_at_end = 0;
  /// In-deadline completions per second of serving time (the run's
  /// goodput).
  double goodput_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_breached = 0;
  int final_limit = 0;
  int knee_limit = 0;
  double knee_goodput = 0.0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t pins_applied = 0;
  std::uint64_t pins_rejected = 0;
  /// Total request sends / first sends (1.0 = no retries at all).
  double retry_amplification = 1.0;
  /// admitted == completed + failed, with nothing still outstanding.
  bool conservation_ok = false;
};

class ServeLoop : public sim::TimerHandler {
 public:
  explicit ServeLoop(ServeConfig config);
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// The live simulation — schedule chaos (fail_link / set_link_loss)
  /// against it between construction and run().
  sim::Network& network() { return *network_; }
  const topo::BuiltTopology& topology() const { return topo_; }
  routing::PinnedDetourOracle& oracle() { return *oracle_; }
  const AdmissionController& admission() const { return admission_; }
  const telemetry::SloTracker& slo() const { return slo_; }
  const sim::RetryBudget& retry_budget() const { return retry_budget_; }

  /// Arm the loop: schedule the arrival process, the demand shifts and
  /// the SLO window cadence.  Implicit in run(); call it explicitly
  /// when driving the loop in slices with run_to()/finish().  A
  /// restored loop is already armed — the engine snapshot holds every
  /// pending timer.
  void start();
  /// Drive the armed loop to simulated time `t`.
  void run_to(TimePs t);
  /// Drive the armed loop to duration + drain and harvest the report.
  ServeReport finish();

  /// Run to duration + drain and harvest.  Call once.
  ServeReport run();

  // --- checkpoint / restore -------------------------------------------------

  /// Periodic-checkpoint driving of the run (see run_with_checkpoints).
  struct CheckpointOptions {
    /// Checkpoint directory (must exist).
    std::string dir;
    /// Simulated-time cadence between checkpoints.
    TimePs every = milliseconds(5);
    /// First checkpoint gets sequence start_sequence + 1 — pass the
    /// restored sequence so resumed runs keep numbering monotonically.
    std::uint64_t start_sequence = 0;
  };

  /// Serialize the full serve state: the serve bookkeeping (outstanding
  /// calls, trace, counters, RNG), admission, SLO, retry budget, the
  /// detour oracle (a staged-but-uncommitted regroom survives verbatim)
  /// and the network with its engine.  Call only between events.
  void save_snapshot(snapshot::Writer& w) const;
  /// Restore into a freshly constructed (never started) loop built from
  /// the same config.  Replaces start().
  void restore_snapshot(snapshot::Reader& r);
  /// Restore from the newest intact checkpoint in `dir`; damaged files
  /// are skipped with a structured line each in `warnings`.  Returns
  /// the restored sequence, or nullopt (loop untouched) when no intact
  /// checkpoint exists.
  std::optional<std::uint64_t> restore_latest(const std::string& dir, std::string* warnings);

  /// run(), but pausing every `options.every` of simulated time to
  /// write an atomic checkpoint — the kill-resumable serve mode.  A
  /// process killed mid-run loses at most one cadence of progress; a
  /// fresh loop restored via restore_latest() continues bit-exactly.
  ServeReport run_with_checkpoints(const CheckpointOptions& options);

  /// Every arrival of the run, replayable via ServeConfig::replay.
  const std::vector<TraceEvent>& trace() const { return trace_; }

  /// Trigger one make-before-break regroom now, spreading each shifted
  /// hot pair's demand across intermediate ring switches.  Normally
  /// scheduled automatically per DemandShift; exposed so chaos
  /// harnesses can reconfigure mid-storm.
  void regroom_now();

  /// Export serve counters and SLO gauges under `<prefix>.`.
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

 private:
  struct Call {
    int cls = 0;
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    TimePs issued_at = 0;
    TimePs deadline = 0;
    std::uint64_t flow_id = 0;
    int attempt = 0;
    bool holding_retry_slot = false;
  };

  /// The outstanding calls, keyed by id.  Ids are issued sequentially
  /// and every call resolves within a bounded time, so the table is a
  /// power-of-two ring over the live id span [base, end): a lookup is
  /// one index, and memory is only allocated when that span reaches a
  /// new high-water mark.
  class CallTable {
   public:
    /// Null when `id` is not outstanding.
    Call* find(std::uint64_t id);
    /// `id` must exceed every id inserted before.
    void insert(std::uint64_t id, const Call& call);
    void erase(std::uint64_t id);
    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    /// Visit the outstanding calls in ascending id order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::uint64_t id = base_; id < end_; ++id) {
        const Slot& slot = slot_of(id);
        if (slot.live) fn(id, slot.call);
      }
    }

   private:
    struct Slot {
      Call call;
      bool live = false;
    };
    Slot& slot_of(std::uint64_t id) { return slots_[id & (slots_.size() - 1)]; }
    const Slot& slot_of(std::uint64_t id) const { return slots_[id & (slots_.size() - 1)]; }

    std::vector<Slot> slots_;
    std::uint64_t base_ = 0;  ///< no id below this is outstanding
    std::uint64_t end_ = 0;   ///< one past the newest inserted id
    std::size_t live_ = 0;
  };

  /// Everything the loop schedules is a timer; `a`/`b` carry the
  /// operands noted per tag.
  enum TimerTag : std::uint32_t {
    kArrivalTag = 1,     ///< next Poisson arrival (self-chained)
    kReplayTag = 2,      ///< replay arrival; a = trace index
    kShiftTag = 3,       ///< demand shift lands; a = shift index
    kRegroomTag = 4,     ///< delayed regroom reaction
    kWindowRollTag = 5,  ///< SLO window close (self-chained)
    kReplyTag = 6,       ///< server reply; a = call id, b = server<<32 | client
    kTimeoutTag = 7,     ///< client RPC timeout; a = call id, b = attempt
  };

  void on_timer(const sim::TimerEvent& event) override;
  ServeReport harvest();

  void next_poisson_arrival();
  void on_arrival(const TraceEvent& ev);
  void send_attempt(std::uint64_t id);
  void on_timeout(std::uint64_t id, int attempt);
  void complete_call(std::uint64_t id, TimePs latency);
  void fail_call(std::uint64_t id);
  void release_retry_slot(Call& call);
  TraceEvent sample_arrival(TimePs when);
  void roll_window();

  ServeConfig config_;
  std::vector<ServeClass> classes_;
  std::vector<double> cum_weight_;
  topo::BuiltTopology topo_;
  /// Ring switches in ring order, and each switch's hosts.
  std::vector<topo::NodeId> ring_switches_;
  std::vector<std::vector<topo::NodeId>> hosts_by_switch_;
  std::unique_ptr<routing::EcmpRouting> routing_;
  std::unique_ptr<routing::PinnedDetourOracle> oracle_;
  std::unique_ptr<routing::Fib> fib_;
  std::unique_ptr<sim::Network> network_;
  AdmissionController admission_;
  telemetry::SloTracker slo_;
  sim::RetryBudget retry_budget_;
  Rng rng_;
  int request_task_ = -1;
  int reply_task_ = -1;
  std::uint64_t next_id_ = 1;
  CallTable outstanding_;
  std::vector<TraceEvent> trace_;
  /// Active demand shift (last one whose time has passed); -1 = none.
  int active_shift_ = -1;
  /// Pins applied by the previous regroom (unpinned by the next).
  std::vector<std::pair<topo::NodeId, topo::NodeId>> live_pins_;
  double min_rtt_us_ = -1.0;  ///< fastest completion seen (deadline propagation)
  bool started_ = false;      ///< armed (or restored)
  bool restored_ = false;
  bool finished_ = false;

  // counters (mirrored into ServeReport)
  std::uint64_t arrivals_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_class_ = 0;
  std::uint64_t shed_limit_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t budget_denied_ = 0;
  std::uint64_t hopeless_dropped_ = 0;
  std::uint64_t first_sends_ = 0;
  std::uint64_t total_sends_ = 0;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t pins_applied_ = 0;
  std::uint64_t pins_rejected_ = 0;
};

}  // namespace quartz::serve
