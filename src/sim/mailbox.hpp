// Typed single-producer/single-consumer mailbox for cross-shard events.
//
// The sharded engine (sim/sharded.hpp) gives every ordered pair of
// shards its own Mailbox, so each box has exactly one producer (the
// shard whose transmit crossed the partition) and one consumer (the
// shard that owns the far end of the link).  That restriction buys the
// same lock-free structure telemetry::BinaryStream uses for its page
// ring: the producer appends entries into fixed-size chunks and
// publishes them with a release store of the chunk's entry count; the
// consumer acquires the count, replays the prefix it has not seen, and
// retires fully-drained chunks once the producer has linked a
// successor.  No mutex, no CAS loop, no allocation on the hot path
// until a chunk fills.
//
// The conservative window protocol makes the memory order easy to
// state: a producer only writes entries during its run window, the
// consumer only drains between windows (after the barrier), and the
// barrier orders the two: every arrival releases through the
// WindowBarrier's acq_rel arrival count, the last arrival releases the
// next phase with a seq_cst store, and every waiter acquires that store
// before it drains (sim/sharded.hpp).  The acquire/release
// pairs below make the box safe even for the optional mid-window
// drain a driver may do to cap memory, which is why the type is
// TSan-clean rather than merely barrier-correct.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "sim/event_queue.hpp"

namespace quartz::sim {

/// Deterministic per-packet tie-break stamp: the splitmix64 finalizer
/// of the packet id, forced odd so it is never zero.  Zero is reserved
/// for control-plane events (timers, faults, probes), which therefore
/// sort ahead of every packet event at the same picosecond — in serial
/// and sharded runs alike.  The stamp is a pure function of the packet
/// id, so two shards that both see packet P at time T order it
/// identically without exchanging anything.
inline constexpr std::uint64_t shard_stamp(std::uint64_t packet_id) {
  return splitmix64(packet_id) | 1;
}

class Mailbox final {
 public:
  struct Entry {
    PacketEvent event;
    TimePs time = 0;
    std::uint64_t stamp = 0;
  };

  Mailbox() : tail_(new Chunk), drain_chunk_(tail_) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;
  ~Mailbox() {
    Chunk* c = drain_chunk_;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  /// Producer side: append one event.  Called only from the producing
  /// shard's worker thread.
  void push(const PacketEvent& event, TimePs time, std::uint64_t stamp) {
    Chunk* tail = tail_;
    std::uint32_t n = tail->count.load(std::memory_order_relaxed);
    if (n == kChunkSize) {
      Chunk* fresh = new Chunk;
      // Publish the link before any entry of the new chunk becomes
      // visible; the consumer uses `next != nullptr` as its license to
      // retire the old chunk.
      tail->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      tail = fresh;
      n = 0;
    }
    tail->entries[n] = Entry{event, time, stamp};
    tail->count.store(n + 1, std::memory_order_release);
    posted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side: invoke `fn(const Entry&)` on every entry not yet
  /// drained.  Called only from the consuming shard's worker thread.
  /// Returns the number of entries drained.
  template <typename Fn>
  std::uint64_t drain(Fn&& fn) {
    std::uint64_t drained = 0;
    for (;;) {
      Chunk* c = drain_chunk_;
      const std::uint32_t published = c->count.load(std::memory_order_acquire);
      while (drain_pos_ < published) {
        fn(static_cast<const Entry&>(c->entries[drain_pos_++]));
        ++drained;
      }
      if (drain_pos_ < kChunkSize) break;
      Chunk* next = c->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      // Every entry of `c` is consumed and the producer has moved on;
      // it will never touch `c` again, so the consumer may free it.
      drain_chunk_ = next;
      drain_pos_ = 0;
      delete c;
    }
    consumed_.fetch_add(drained, std::memory_order_relaxed);
    return drained;
  }

  /// Total entries ever pushed / drained.  Exact only at a barrier
  /// (both sides quiescent); the checkpoint path asserts
  /// pending() == 0 there before serializing shard state.
  std::uint64_t posted() const { return posted_.load(std::memory_order_acquire); }
  std::uint64_t consumed() const { return consumed_.load(std::memory_order_acquire); }
  std::uint64_t pending() const {
    const std::uint64_t c = consumed();
    const std::uint64_t p = posted();
    return p - c;
  }

 private:
  static constexpr std::uint32_t kChunkSize = 512;

  struct Chunk {
    std::atomic<std::uint32_t> count{0};
    std::atomic<Chunk*> next{nullptr};
    Entry entries[kChunkSize];
  };

  // Producer-owned.
  Chunk* tail_;
  // Consumer-owned.
  Chunk* drain_chunk_;
  std::uint32_t drain_pos_ = 0;
  // Shared counters (relaxed increments; read at barriers).
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> consumed_{0};
};

}  // namespace quartz::sim
