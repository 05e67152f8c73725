#include "sim/sharded.hpp"

#include <algorithm>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.hpp"
#include "sim/network.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {

namespace {
constexpr std::uint32_t kLayoutChunk = snapshot::chunk_id("SHRD");

/// Spin budget before parking: about 90 us at ~22 ns per `pause`, a few
/// windows of storm work, far below a scheduler quantum.
constexpr int kSpinPauses = 4096;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// CPUs the calling thread may run on (threads it spawns inherit them).
int usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}
}  // namespace

WindowBarrier::WindowBarrier(int parties)
    : parties_(parties), spin_limit_(parties <= usable_cpus() ? kSpinPauses : 0) {
  QUARTZ_REQUIRE(parties >= 1, "a barrier needs at least one party");
}

void WindowBarrier::arrive_and_wait() {
  // This thread has not arrived yet, so the phase cannot move under it.
  const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) phase_.notify_all();
    return;
  }
  for (int i = 0; i < spin_limit_; ++i) {
    if (phase_.load(std::memory_order_acquire) != phase) return;
    cpu_relax();
  }
  parked_.fetch_add(1, std::memory_order_seq_cst);
  while (phase_.load(std::memory_order_seq_cst) == phase) {
    phase_.wait(phase, std::memory_order_seq_cst);
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

ShardedSim::ShardedSim(PartitionPlan plan, const ShardFactory& factory)
    : plan_(std::move(plan)),
      boxes_(static_cast<std::size_t>(plan_.shards) * static_cast<std::size_t>(plan_.shards)),
      barrier_(plan_.shards) {
  const int shards = plan_.shards;
  for (int p = 0; p < shards; ++p) {
    for (int c = 0; c < shards; ++c) {
      if (p != c) {
        boxes_[static_cast<std::size_t>(p * shards + c)] = std::make_unique<Mailbox>();
      }
    }
  }
  outboxes_.resize(static_cast<std::size_t>(shards));
  for (int p = 0; p < shards; ++p) {
    outboxes_[static_cast<std::size_t>(p)].resize(static_cast<std::size_t>(shards), nullptr);
    for (int c = 0; c < shards; ++c) {
      if (p != c) {
        outboxes_[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] =
            boxes_[static_cast<std::size_t>(p * shards + c)].get();
      }
    }
  }

  workers_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) workers_.push_back(std::make_unique<Worker>());
  // The factory runs on each worker thread (thread confinement); the
  // build is the worker's first implicit command.
  for (int i = 0; i < shards; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    w.thread = std::thread([this, i, &factory] {
      Worker& self = *workers_[static_cast<std::size_t>(i)];
      try {
        ShardContext ctx;
        ctx.shard = i;
        ctx.plan = &plan_;
        ctx.binding.shard = i;
        ctx.binding.shard_count = plan_.shards;
        ctx.binding.owner = &plan_.owner;
        ctx.binding.outboxes = outboxes_[static_cast<std::size_t>(i)].data();
        self.shard = factory(ctx);
        QUARTZ_CHECK(self.shard != nullptr, "shard factory returned null");
      } catch (...) {
        self.error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(self.mutex);
        self.done = true;
      }
      self.cv.notify_all();
      worker_main(i);
    });
  }

  std::exception_ptr build_error;
  for (int i = 0; i < shards; ++i) {
    await(i);
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    if (w.error != nullptr && build_error == nullptr) build_error = w.error;
  }
  if (build_error != nullptr) {
    shutdown();
    std::rethrow_exception(build_error);
  }
}

ShardedSim::~ShardedSim() { shutdown(); }

void ShardedSim::shutdown() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    if (!w.thread.joinable()) continue;
    post(static_cast<int>(i), Command::kQuit);
    w.thread.join();
  }
}

void ShardedSim::worker_main(int index) {
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  for (;;) {
    Command command;
    TimePs begin;
    TimePs end;
    const std::function<void(int, Shard&)>* visit_fn;
    {
      std::unique_lock<std::mutex> lock(self.mutex);
      self.cv.wait(lock, [&self] { return self.command != Command::kIdle; });
      command = self.command;
      begin = self.begin;
      end = self.end;
      visit_fn = self.visit_fn;
      self.command = Command::kIdle;
    }
    if (command == Command::kQuit) return;
    self.error = nullptr;
    switch (command) {
      case Command::kRun:
        run_windows(index, begin, end);
        break;
      case Command::kVisit:
        try {
          (*visit_fn)(index, *self.shard);
        } catch (...) {
          self.error = std::current_exception();
        }
        break;
      default:
        break;
    }
    {
      std::lock_guard<std::mutex> lock(self.mutex);
      self.done = true;
    }
    self.cv.notify_all();
  }
}

void ShardedSim::run_windows(int index, TimePs begin, TimePs end) {
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  const TimePs w = plan_.lookahead;
  const std::int64_t barriers = barrier_count(begin, end);
  std::int64_t arrived = 0;
  try {
    Network& net = self.shard->network();
    TimePs cursor = begin;
    while (cursor < end) {
      // Overflow-safe min(cursor + w, end): w is TimePs max for a
      // single-shard plan.
      const TimePs target = end - cursor <= w ? end : cursor + w;
      net.run_before(target);
      barrier_.arrive_and_wait();
      ++arrived;
      drain_inboxes(index);
      cursor = target;
    }
    // The inclusive tail runs the events at exactly `end`; transits
    // they generate land at end + propagation > end, so the drain
    // below only schedules future work (mailboxes still quiesce).
    net.run_until(end);
    barrier_.arrive_and_wait();
    ++arrived;
    drain_inboxes(index);
  } catch (...) {
    self.error = std::current_exception();
    // Keep honoring the deterministic barrier schedule as no-ops so
    // the surviving workers never deadlock; the driver rethrows the
    // error once the round completes.
    for (; arrived < barriers; ++arrived) barrier_.arrive_and_wait();
  }
}

void ShardedSim::drain_inboxes(int index) {
  Network& net = workers_[static_cast<std::size_t>(index)]->shard->network();
  const int shards = plan_.shards;
  for (int p = 0; p < shards; ++p) {
    if (p == index) continue;
    boxes_[static_cast<std::size_t>(p * shards + index)]->drain(
        [&net](const Mailbox::Entry& entry) { net.deliver_mail(entry); });
  }
}

std::int64_t ShardedSim::barrier_count(TimePs begin, TimePs end) const {
  const TimePs w = plan_.lookahead;
  const TimePs span = end - begin;
  std::int64_t strict = 0;
  if (span > 0) strict = span <= w ? 1 : (span + w - 1) / w;
  return strict + 1;
}

void ShardedSim::post(int index, Command command) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.done = false;
    w.command = command;
  }
  w.cv.notify_all();
}

void ShardedSim::await(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  std::unique_lock<std::mutex> lock(w.mutex);
  w.cv.wait(lock, [&w] { return w.done; });
}

void ShardedSim::round(Command command) {
  for (std::size_t i = 0; i < workers_.size(); ++i) post(static_cast<int>(i), command);
  std::exception_ptr error;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    await(static_cast<int>(i));
    if (workers_[i]->error != nullptr && error == nullptr) error = workers_[i]->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ShardedSim::run_until(TimePs end) {
  QUARTZ_REQUIRE(!failure_, "sharded run already failed (" + failure_.value_or("") +
                                "); its shards are mid-window, build a new run");
  QUARTZ_REQUIRE(end >= cursor_, "cannot run backwards");
  for (const auto& w : workers_) {
    w->begin = cursor_;
    w->end = end;
  }
  try {
    round(Command::kRun);
  } catch (const std::exception& e) {
    failure_ = e.what();
    throw;
  } catch (...) {
    failure_ = "non-standard exception";
    throw;
  }
  cursor_ = end;
  // The window protocol guarantees quiesced mailboxes between runs —
  // the property checkpointing relies on.
  for (const auto& box : boxes_) {
    QUARTZ_CHECK(box == nullptr || box->pending() == 0, "mailbox not quiesced at barrier");
  }
}

void ShardedSim::visit(const std::function<void(int, Shard&)>& fn) {
  // Sequential in shard order: shard k's closure completes before
  // shard k+1's starts, so cross-shard aggregation sees a stable order
  // and checkpoint chunks land in a deterministic sequence.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->visit_fn = &fn;
    post(static_cast<int>(i), Command::kVisit);
    await(static_cast<int>(i));
    if (workers_[i]->error != nullptr) std::rethrow_exception(workers_[i]->error);
  }
}

std::uint64_t ShardedSim::events_processed() {
  std::uint64_t total = 0;
  visit([&total](int, Shard& shard) { total += shard.network().events_processed(); });
  return total;
}

std::uint64_t ShardedSim::mail_posted() {
  std::uint64_t total = 0;
  visit([&total](int, Shard& shard) { total += shard.network().mail_posted(); });
  return total;
}

void ShardedSim::save_layout(snapshot::Writer& w) const {
  QUARTZ_REQUIRE(!failure_, "cannot checkpoint a failed sharded run (" +
                                failure_.value_or("") + ")");
  w.begin_chunk(kLayoutChunk);
  w.put_u32(static_cast<std::uint32_t>(plan_.shards));
  w.put_i64(plan_.lookahead);
  w.put_i64(cursor_);
  w.put_u64(plan_.layout_digest());
  w.put_string(plan_.strategy);
  w.end_chunk();
}

void ShardedSim::restore_layout(snapshot::Reader& r) {
  r.open_chunk(kLayoutChunk);
  const auto shards = static_cast<int>(r.get_u32());
  QUARTZ_REQUIRE(shards == plan_.shards,
                 "snapshot shard layout mismatch: saved at --shards=" + std::to_string(shards) +
                     ", restoring at --shards=" + std::to_string(plan_.shards) +
                     "; restore with the saved shard count");
  const TimePs lookahead = r.get_i64();
  QUARTZ_REQUIRE(lookahead == plan_.lookahead, "snapshot partition lookahead mismatch");
  const TimePs cursor = r.get_i64();
  const std::uint64_t digest = r.get_u64();
  QUARTZ_REQUIRE(digest == plan_.layout_digest(),
                 "snapshot shard owner map differs from this partition");
  const std::string strategy = r.get_string();
  QUARTZ_REQUIRE(strategy == plan_.strategy, "snapshot partition strategy mismatch");
  r.close_chunk();
  // Any monotone barrier sequence with steps <= lookahead is safe, so
  // resuming from a cursor that is not a multiple of the window width
  // preserves the digest (the first window is simply shorter).
  cursor_ = cursor;
}

}  // namespace quartz::sim
