#include "sim/event_queue.hpp"

#include <algorithm>
#include <string>

#include "snapshot/io.hpp"

namespace quartz::sim {
namespace {

void save_packet(snapshot::Writer& w, const Packet& p) {
  w.put_u64(p.id);
  w.put_i32(p.key.src);
  w.put_i32(p.key.dst);
  w.put_u64(p.key.flow_hash);
  w.put_i32(p.key.via);
  w.put_bool(p.key.vlb_done);
  w.put_i64(p.size);
  w.put_i64(p.created);
  w.put_i32(p.task);
  w.put_i32(p.hops);
  w.put_i64(p.queued);
  w.put_u64(p.tag);
}

Packet restore_packet(snapshot::Reader& r) {
  Packet p;
  p.id = r.get_u64();
  p.key.src = r.get_i32();
  p.key.dst = r.get_i32();
  p.key.flow_hash = r.get_u64();
  p.key.via = r.get_i32();
  p.key.vlb_done = r.get_bool();
  p.size = r.get_i64();
  p.created = r.get_i64();
  p.task = r.get_i32();
  p.hops = r.get_i32();
  p.queued = r.get_i64();
  p.tag = r.get_u64();
  return p;
}

}  // namespace

void EventQueue::save(snapshot::Writer& w, const HandlerMap& handlers) const {
  // Collect every pending entry from all three tiers.  Sorting by seq
  // makes the snapshot bytes independent of tier placement (and the
  // restore path's re-push order deterministic).
  std::vector<HeapEntry> entries;
  entries.reserve(size_);
  entries.insert(entries.end(), active_.begin(), active_.end());
  entries.insert(entries.end(), far_.begin(), far_.end());
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    if ((bitmap_[b >> 6] & (std::uint64_t{1} << (b & 63))) == 0) continue;
    for (std::uint32_t node = head_[b]; node != kNil; node = nodes_[node].next)
      entries.push_back(nodes_[node].entry);
  }
  QUARTZ_CHECK(entries.size() == size_, "tier bookkeeping out of sync");
  std::sort(entries.begin(), entries.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return a.seq < b.seq; });

  w.put_i64(now_);
  w.put_u64(next_seq_);
  w.put_u64(events_run_);
  w.put_u64(entries.size());
  for (const HeapEntry& e : entries) {
    w.put_i64(e.time);
    w.put_u64(e.stamp);
    w.put_u64(e.seq);
    w.put_u8(static_cast<std::uint8_t>(e.type));
    switch (e.type) {
      case EventType::kHeaderDecision:
      case EventType::kTransmitComplete:
      case EventType::kDelivery: {
        const PacketEvent& ev = packets_[e.slot];
        save_packet(w, ev.packet);
        w.put_i32(ev.node);
        w.put_i32(ev.link);
        w.put_u32(ev.link_seq);
        w.put_i64(ev.t0);
        w.put_i64(ev.t1);
        break;
      }
      case EventType::kFaultTransition: {
        const FaultEvent& ev = faults_[e.slot];
        w.put_i32(ev.link);
        w.put_u32(ev.link_seq);
        w.put_bool(ev.dead);
        break;
      }
      case EventType::kTimer: {
        const TimerEvent& ev = timers_[e.slot];
        w.put_u32(handlers.timer_id(ev.handler));
        w.put_u32(ev.tag);
        w.put_u64(ev.a);
        w.put_u64(ev.b);
        break;
      }
    }
  }
}

void EventQueue::restore(snapshot::Reader& r, const HandlerMap& handlers) {
  QUARTZ_REQUIRE(size_ == 0 && events_run_ == 0 && now_ == 0,
                 "restore requires a freshly constructed engine");
  now_ = r.get_i64();
  const std::uint64_t next_seq = r.get_u64();
  const std::uint64_t events_run = r.get_u64();
  // Anchor the wheel on now(): every saved entry re-routes to its tier
  // relative to this cursor exactly as push_entry would have placed it
  // had the engine been running since time zero.
  cursor_ = bucket_index(now_);
  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const TimePs time = r.get_i64();
    const std::uint64_t stamp = r.get_u64();
    const std::uint64_t seq = r.get_u64();
    const std::uint8_t type_byte = r.get_u8();
    QUARTZ_REQUIRE(type_byte <= static_cast<std::uint8_t>(EventType::kTimer),
                   "snapshot holds unknown event type " + std::to_string(type_byte));
    const auto type = static_cast<EventType>(type_byte);
    switch (type) {
      case EventType::kHeaderDecision:
      case EventType::kTransmitComplete:
      case EventType::kDelivery: {
        PacketEvent ev;
        ev.packet = restore_packet(r);
        ev.node = r.get_i32();
        ev.link = r.get_i32();
        ev.link_seq = r.get_u32();
        ev.t0 = r.get_i64();
        ev.t1 = r.get_i64();
        const std::uint32_t slot = packets_.acquire();
        packets_[slot] = ev;
        push_entry_at(time, stamp, seq, type, slot);
        break;
      }
      case EventType::kFaultTransition: {
        FaultEvent ev;
        ev.link = r.get_i32();
        ev.link_seq = r.get_u32();
        ev.dead = r.get_bool();
        const std::uint32_t slot = faults_.acquire();
        faults_[slot] = ev;
        push_entry_at(time, stamp, seq, type, slot);
        break;
      }
      case EventType::kTimer: {
        TimerEvent ev;
        ev.handler = handlers.timer(r.get_u32());
        ev.tag = r.get_u32();
        ev.a = r.get_u64();
        ev.b = r.get_u64();
        const std::uint32_t slot = timers_.acquire();
        timers_[slot] = ev;
        push_entry_at(time, stamp, seq, type, slot);
        break;
      }
    }
  }
  next_seq_ = next_seq;
  events_run_ = events_run;
}

}  // namespace quartz::sim
