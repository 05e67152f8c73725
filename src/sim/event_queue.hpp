// Deterministic discrete-event engine.
//
// Events fire in (time, stamp, insertion-sequence) order.  The stamp is
// an opaque 64-bit tie-breaker that defaults to zero, in which case the
// order degenerates to the classic (time, seq): two events at the same
// picosecond run in the order they were scheduled and every simulation
// is bit-reproducible from its seed.  The sharded engine (sim/sharded.hpp)
// stamps every packet event with a hash of the packet id instead, so
// same-time ties resolve identically no matter which shard scheduled
// the event first — the property that makes one simulation digest
// byte-identical at every shard count.  Stamp zero sorts before every
// packet stamp, so control-plane events (fault transitions, timers)
// keep running ahead of data packets at equal times.
//
// The engine carries a closed set of five typed POD events: the three
// packet events (header-decision, transmit-complete, delivery),
// Network's fault-transition, and the control-plane timer that every
// workload generator, probe plane and fault script schedules through.
// Each type lives in a slot pool with free-list recycling: once the
// pools have grown to the high-water mark of in-flight events, a
// steady-state simulation schedules and runs events with zero heap
// allocations.  Every event is plain data, so any pending set can be
// snapshotted.
//
// A packet keeps one slot from schedule_packet() until it is delivered
// or dropped.  dispatch() hands the handler the pooled PacketEvent
// itself; the handler edits it in place and re-keys the same slot with
// rearm_packet() for the packet's next hop.  A slot the handler does
// not re-arm is released when the handler returns.  Pools are built
// from fixed-size blocks that never move, so the reference stays valid
// while the handler schedules other events.
//
// The pending set is a two-tier calendar: a small exact (time, stamp, seq)
// min-heap for the active ~4 ns window, unsorted FIFO buckets for the
// ~2 us wheel ahead of it, and an overflow heap beyond the horizon.
// The wheel's buckets are linked lists threaded through one node pool,
// so the wheel allocates only while that pool grows to its high-water
// mark, not once per bucket.
// Dense packet workloads pay O(1) bucket appends plus sifts through a
// heap of a handful of entries instead of the whole in-flight set;
// sparse workloads degrade gracefully to the overflow heap (the wheel
// cursor jumps, it never scans empty time).
//
// An EventQueue is strictly single-threaded: it is the per-engine core
// that SweepRunner instantiates once per worker.  See docs/performance.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/packet.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::sim {

/// The closed set of event types the engine understands: the packet
/// hot path, Network's delayed fault detection, and one control-plane
/// timer for everything else.
enum class EventType : std::uint8_t {
  kHeaderDecision,    ///< forwarding decision ready; put packet on its next line
  kTransmitComplete,  ///< packet head reached the far end of a link
  kDelivery,          ///< last bit + host receive overhead at the destination
  kFaultTransition,   ///< delayed routing-plane detection of a link state flip
  kTimer,             ///< control-plane timer (generators, probes, fault scripts)
};

/// Payload of the packet-carrying event types.  The two times mean,
/// per type:
///   kHeaderDecision:   t0 = decision-ready time, t1 = min finish time
///   kTransmitComplete: t0 = first-bit arrival,   t1 = last-bit arrival
///   kDelivery:         t0 = delivery time,       t1 unused
struct PacketEvent {
  Packet packet;
  topo::NodeId node = -1;      ///< decision node / arrival peer
  topo::LinkId link = -1;      ///< in-flight link (kTransmitComplete only)
  std::uint32_t link_seq = 0;  ///< link state observed at transmission
  TimePs t0 = 0;
  TimePs t1 = 0;
};

/// Payload of kFaultTransition: the routing plane learns `link` is
/// dead/alive, unless the physical state moved on (seq mismatch).
struct FaultEvent {
  topo::LinkId link = -1;
  std::uint32_t link_seq = 0;
  bool dead = false;
};

class TimerHandler;

/// Payload of kTimer: the one control-plane event.  A timer is pure
/// data — a handler, a dispatch tag and two integer operands — so
/// pending timers survive snapshot/restore.  Every component that
/// schedules work (workload generators, probe planes, fault scripts,
/// serve-loop timeouts) encodes its state machine in (tag, a, b) and
/// implements TimerHandler.  The event carries its handler so several
/// components share one engine.
struct TimerEvent {
  TimerHandler* handler = nullptr;
  std::uint32_t tag = 0;  ///< handler-private dispatch discriminator
  std::uint64_t a = 0;    ///< handler-private operand
  std::uint64_t b = 0;    ///< handler-private operand
};

/// Receiver of typed packet and fault events — implemented by Network.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  /// `event` is the packet's pooled slot, valid until the handler
  /// returns.  The handler may edit it in place and re-arm it with
  /// EventQueue::rearm_packet(); otherwise the slot is released.
  virtual void on_packet_event(EventType type, PacketEvent& event) = 0;
  virtual void on_fault_event(const FaultEvent& event) = 0;
};

/// Receiver of typed timer events.
class TimerHandler {
 public:
  virtual ~TimerHandler() = default;
  virtual void on_timer(const TimerEvent& event) = 0;
};

/// Translation table between handler pointers and stable indices for
/// snapshot/restore.  The harness that owns the components registers
/// them in a fixed order before save and again (same order, possibly
/// different addresses) before restore; pending events serialize the
/// index, never the pointer.
struct HandlerMap {
  std::vector<TimerHandler*> timers;

  std::uint32_t timer_id(const TimerHandler* handler) const {
    const auto it = std::find(timers.begin(), timers.end(), handler);
    QUARTZ_REQUIRE(it != timers.end(), "timer handler not registered in HandlerMap");
    return static_cast<std::uint32_t>(it - timers.begin());
  }
  TimerHandler* timer(std::uint32_t id) const {
    QUARTZ_REQUIRE(id < timers.size(), "timer handler index out of range");
    return timers[id];
  }
};

/// Fixed-type slot arena with free-list recycling.  acquire() reuses a
/// released slot when one exists and grows the arena otherwise, so once
/// the pool reaches the high-water mark of simultaneously in-flight
/// events it never allocates again.  Slots live in fixed-size blocks
/// that are never moved: a reference to a slot survives any number of
/// later acquires.
template <typename T>
class SlotPool {
 public:
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (count_ == blocks_.size() * kBlockSize) blocks_.push_back(std::make_unique<T[]>(kBlockSize));
    return count_++;
  }
  void release(std::uint32_t slot) { free_.push_back(slot); }
  T& operator[](std::uint32_t slot) { return blocks_[slot >> kBlockShift][slot & kBlockMask]; }
  const T& operator[](std::uint32_t slot) const {
    return blocks_[slot >> kBlockShift][slot & kBlockMask];
  }
  /// Slots ever created (the high-water mark of in-flight events).
  std::size_t capacity() const { return count_; }

 private:
  static constexpr std::uint32_t kBlockShift = 8;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  static constexpr std::uint32_t kBlockMask = kBlockSize - 1;

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t count_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  explicit EventQueue(EventHandler* handler) : handler_(handler) {}

  /// Attach the receiver of typed packet/fault events.  Must be set
  /// before the first typed event is scheduled.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// `stamp` is the (time, stamp, seq) tie-breaker; 0 (the default)
  /// preserves pure scheduling order, non-zero values give same-time
  /// packet events a schedule-order-independent total order (see file
  /// comment and sim/sharded.hpp).
  void schedule_packet(TimePs when, EventType type, const PacketEvent& event,
                       std::uint64_t stamp = 0) {
    QUARTZ_CHECK(is_packet(type), "not a packet event type");
    const std::uint32_t slot = packets_.acquire();
    packets_[slot] = event;
    push_entry_at(when, stamp, next_seq_++, type, slot);
  }

  /// Re-key the packet slot being dispatched (the PacketEvent& the
  /// handler holds, already edited in place) as a new pending event.
  /// Ordering is exactly that of schedule_packet() with a copy: the
  /// sequence number is taken here.  At most once per dispatch.
  void rearm_packet(TimePs when, EventType type, std::uint64_t stamp = 0) {
    QUARTZ_CHECK(held_ != kNil, "rearm_packet outside a packet dispatch, or twice in one");
    QUARTZ_CHECK(is_packet(type), "not a packet event type");
    const std::uint32_t slot = held_;
    held_ = kNil;
    push_entry_at(when, stamp, next_seq_++, type, slot);
  }

  void schedule_fault(TimePs when, const FaultEvent& event) {
    const std::uint32_t slot = faults_.acquire();
    faults_[slot] = event;
    push_entry(when, EventType::kFaultTransition, slot);
  }

  void schedule_timer(TimePs when, const TimerEvent& event) {
    QUARTZ_REQUIRE(event.handler != nullptr, "timer event without a handler");
    const std::uint32_t slot = timers_.acquire();
    timers_[slot] = event;
    push_entry(when, EventType::kTimer, slot);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  TimePs now() const { return now_; }
  TimePs next_time() const {
    QUARTZ_REQUIRE(size_ != 0, "queue is empty");
    if (!active_.empty()) return active_.front().time;
    // The active heap is dry: the next event is the earliest entry in
    // the first occupied tier — compare the wheel's first non-empty
    // bucket against the overflow heap by bucket index (the tiers
    // partition time, so the lower index wins outright; on a tie the
    // bucket minimum and the overflow top share a window).
    const std::uint64_t bucket = first_occupied_bucket();
    const std::uint64_t far =
        far_.empty() ? kNoBucket : static_cast<std::uint64_t>(far_.front().time) >> kBucketShift;
    if (bucket < far) return bucket_min_time(bucket);
    if (far < bucket) return far_.front().time;
    TimePs best = far_.front().time;
    const TimePs in_bucket = bucket_min_time(bucket);
    return in_bucket < best ? in_bucket : best;
  }

  /// Pop and run the earliest event; advances now().
  void run_one() {
    QUARTZ_REQUIRE(size_ != 0, "queue is empty");
    while (active_.empty()) advance_window();
    const HeapEntry entry = heap_pop(active_);
    --size_;
    now_ = entry.time;
    ++events_run_;
    dispatch(entry);
  }

  /// Run every event with time <= end; now() lands on `end`.
  void run_until(TimePs end) {
    while (run_one_until(end)) {
    }
    settle(end);
  }

  /// Run ONE event with time <= end if any is pending; returns whether
  /// an event ran.  This is run_until() unrolled to event granularity,
  /// so a checkpointing driver can stop at an exact event boundary.
  bool run_one_until(TimePs end) {
    if (size_ == 0) return false;
    while (active_.empty()) advance_window();
    if (active_.front().time > end) return false;
    run_one();
    return true;
  }

  /// Run every event with time STRICTLY below `end`; now() lands on
  /// `end`.  This is the conservative-window primitive: a sharded
  /// driver runs each shard to the barrier exclusively, exchanges
  /// mailboxes, and events exactly at the barrier execute in the next
  /// window — after every cross-shard event with the same time has been
  /// injected, so the (time, stamp) order stays total across shards.
  void run_before(TimePs end) {
    while (run_one_before(end)) {
    }
    settle(end);
  }

  /// run_before() at event granularity; returns whether an event ran.
  bool run_one_before(TimePs end) {
    if (size_ == 0) return false;
    while (active_.empty()) advance_window();
    if (active_.front().time >= end) return false;
    run_one();
    return true;
  }

  /// Land now() on `end` once run_one_until() is exhausted.
  void settle(TimePs end) {
    if (end > now_) now_ = end;
  }

  /// Total events dispatched so far (all types).
  std::uint64_t events_run() const { return events_run_; }

  /// Serialize now(), the sequence counters and every pending event
  /// (with its exact (time, stamp, seq) ordering key) in seq order.
  /// Handler pointers are written as HandlerMap indices.
  void save(snapshot::Writer& w, const HandlerMap& handlers) const;

  /// Rebuild the pending set into this freshly constructed engine.
  /// Every entry is re-pushed with its saved (time, stamp, seq) key, so
  /// the dispatch order — and therefore the simulation — continues
  /// bit-exactly.  Rejects an unknown event-type byte.
  void restore(snapshot::Reader& r, const HandlerMap& handlers);

  // Packet pool high-water mark, for the zero-allocation regression
  // tests and the bench/suite engine metrics: once it plateaus,
  // scheduling stops allocating packet slots.
  std::size_t packet_pool_capacity() const { return packets_.capacity(); }

 private:
  /// One pending event: tiers order these 32-byte records by
  /// (time, stamp, seq); payloads stay put in their pools.
  struct HeapEntry {
    TimePs time;
    std::uint64_t stamp;
    std::uint64_t seq;
    EventType type;
    std::uint32_t slot;
  };

  /// A wheel entry: bucket lists are threaded through one pool of these.
  struct WheelNode {
    HeapEntry entry;
    std::uint32_t next;
  };

  // The calendar's geometry: 2^12 ps (~4.1 ns) buckets, 512 of them,
  // so the wheel covers ~2.1 us of lookahead beyond the active window
  // — comfortably past the per-hop delays of a dense packet workload.
  // Times are non-negative (schedule requires when >= now() >= 0), so
  // the unsigned shift below is safe.
  static constexpr int kBucketShift = 12;
  static constexpr std::size_t kBucketCount = 512;
  static constexpr std::size_t kBucketMask = kBucketCount - 1;
  static constexpr std::size_t kBitmapWords = kBucketCount / 64;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};  ///< no node / no slot

  static bool is_packet(EventType type) {
    return type == EventType::kHeaderDecision || type == EventType::kTransmitComplete ||
           type == EventType::kDelivery;
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.seq < b.seq;
  }

  static std::uint64_t bucket_index(TimePs when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  void push_entry(TimePs when, EventType type, std::uint32_t slot) {
    push_entry_at(when, 0, next_seq_++, type, slot);
  }

  /// Tier-routing core, with an explicit ordering key so restore can
  /// re-push entries under their original (time, stamp, seq) keys.  The
  /// tiers partition time by bucket index, so placement relative to the
  /// cursor is a pure function of `when` — re-pushing in any order
  /// reproduces an equivalent pending set.
  void push_entry_at(TimePs when, std::uint64_t stamp, std::uint64_t seq, EventType type,
                     std::uint32_t slot) {
    QUARTZ_REQUIRE(when >= now_, "cannot schedule into the past");
    const std::uint64_t idx = bucket_index(when);
    ++size_;
    if (idx <= cursor_) {
      // Inside (or behind) the active window: exact heap.
      heap_push(active_, HeapEntry{when, stamp, seq, type, slot});
    } else if (idx - cursor_ <= kBucketCount) {
      // Within the wheel horizon: O(1) append to the bucket's list.
      // Each bucket holds at most one bucket index at a time because
      // the live range (cursor_, cursor_ + kBucketCount] is exactly one
      // revolution.  head_/tail_ are meaningful only while the bucket's
      // bitmap bit is set.
      const std::size_t b = idx & kBucketMask;
      std::uint32_t node = free_node_;
      if (node != kNil) {
        free_node_ = nodes_[node].next;
      } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      nodes_[node] = WheelNode{HeapEntry{when, stamp, seq, type, slot}, kNil};
      const std::uint64_t bit = std::uint64_t{1} << (b & 63);
      if (bitmap_[b >> 6] & bit) {
        nodes_[tail_[b]].next = node;
      } else {
        head_[b] = node;
        bitmap_[b >> 6] |= bit;
      }
      tail_[b] = node;
      ++wheel_count_;
    } else {
      // Beyond the horizon: overflow heap, migrated when its window
      // becomes active.
      heap_push(far_, HeapEntry{when, stamp, seq, type, slot});
    }
  }

  /// Jump the cursor to the next occupied window and load that
  /// window's events into the active heap.  The tiers partition time
  /// by bucket index, so everything already in active_ precedes
  /// everything still in the wheel or overflow — order stays exact.
  void advance_window() {
    std::uint64_t next =
        far_.empty() ? kNoBucket : bucket_index(far_.front().time);
    const std::uint64_t bucket = first_occupied_bucket();
    if (bucket < next) next = bucket;
    cursor_ = next;
    const std::size_t b = cursor_ & kBucketMask;
    if (bitmap_[b >> 6] & (std::uint64_t{1} << (b & 63))) {
      for (std::uint32_t node = head_[b]; node != kNil; node = nodes_[node].next) {
        heap_push(active_, nodes_[node].entry);
        --wheel_count_;
      }
      // Splice the whole list onto the free list: no steady-state
      // allocation.
      nodes_[tail_[b]].next = free_node_;
      free_node_ = head_[b];
      bitmap_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
    while (!far_.empty() && bucket_index(far_.front().time) <= cursor_)
      heap_push(active_, heap_pop(far_));
  }

  /// Absolute index of the first occupied wheel bucket after the
  /// cursor, or kNoBucket.  Scans the occupancy bitmap, not time: an
  /// idle wheel costs one load.
  std::uint64_t first_occupied_bucket() const {
    if (wheel_count_ == 0) return kNoBucket;
    for (std::uint64_t off = 1; off <= kBucketCount;) {
      const std::size_t b = (cursor_ + off) & kBucketMask;
      const std::uint64_t word = bitmap_[b >> 6] >> (b & 63);
      if (word != 0) return cursor_ + off + std::countr_zero(word);
      off += 64 - (b & 63);
    }
    return kNoBucket;  // unreachable while wheel_count_ != 0
  }

  TimePs bucket_min_time(std::uint64_t idx) const {
    std::uint32_t node = head_[idx & kBucketMask];
    TimePs best = nodes_[node].entry.time;
    for (node = nodes_[node].next; node != kNil; node = nodes_[node].next)
      if (nodes_[node].entry.time < best) best = nodes_[node].entry.time;
    return best;
  }

  // Hole-style binary-heap sifts: carry the displaced entry in a
  // register and shift parents/children into the hole, writing the
  // entry back exactly once — one 32-byte store per level instead of a
  // three-move swap.  Pop replaces the root with the last leaf and
  // sifts down — no in-place mutation of an ordered container's key
  // (the old priority_queue implementation const_cast-moved from
  // top()).
  static void heap_push(std::vector<HeapEntry>& heap, const HeapEntry& entry) {
    heap.push_back(entry);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(entry, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = entry;
  }

  static HeapEntry heap_pop(std::vector<HeapEntry>& heap) {
    const HeapEntry top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n != 0) {
      std::size_t i = 0;
      const HeapEntry entry = heap[0];
      while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= n) break;
        std::size_t child = left;
        if (left + 1 < n && earlier(heap[left + 1], heap[left])) child = left + 1;
        if (!earlier(heap[child], entry)) break;
        heap[i] = heap[child];
        i = child;
      }
      heap[i] = entry;
    }
    return top;
  }

  void dispatch(const HeapEntry& entry) {
    switch (entry.type) {
      case EventType::kHeaderDecision:
      case EventType::kTransmitComplete:
      case EventType::kDelivery: {
        // In place: the handler edits the pooled slot and may re-arm
        // it; a slot it did not re-arm is released once it returns.
        QUARTZ_CHECK(handler_ != nullptr, "typed packet event but no handler attached");
        held_ = entry.slot;
        handler_->on_packet_event(entry.type, packets_[entry.slot]);
        if (held_ == entry.slot) packets_.release(entry.slot);
        held_ = kNil;
        return;
      }
      case EventType::kFaultTransition: {
        const FaultEvent event = faults_[entry.slot];
        faults_.release(entry.slot);
        QUARTZ_CHECK(handler_ != nullptr, "fault event but no handler attached");
        handler_->on_fault_event(event);
        return;
      }
      case EventType::kTimer: {
        const TimerEvent event = timers_[entry.slot];
        timers_.release(entry.slot);
        event.handler->on_timer(event);
        return;
      }
    }
    QUARTZ_CHECK(false, "unknown event type");
  }

  std::vector<HeapEntry> active_;              ///< exact heap for windows <= cursor_
  std::vector<HeapEntry> far_;                 ///< overflow heap beyond the wheel
  std::vector<WheelNode> nodes_;               ///< the wheel's node pool
  std::uint32_t free_node_ = kNil;             ///< free-list head in nodes_
  std::uint32_t head_[kBucketCount] = {};      ///< per-bucket list head (bit set only)
  std::uint32_t tail_[kBucketCount] = {};      ///< per-bucket list tail (bit set only)
  std::uint64_t bitmap_[kBitmapWords] = {};    ///< bucket-occupancy bits
  std::uint64_t cursor_ = 0;                   ///< bucket index of the active window
  std::size_t wheel_count_ = 0;                ///< entries across all buckets
  std::size_t size_ = 0;                       ///< entries across all tiers
  SlotPool<PacketEvent> packets_;
  SlotPool<FaultEvent> faults_;
  SlotPool<TimerEvent> timers_;
  EventHandler* handler_ = nullptr;
  std::uint32_t held_ = kNil;  ///< packet slot being dispatched, until re-armed
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
};

}  // namespace quartz::sim
