#include "telemetry/decode.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "sim/packet.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::telemetry {

// --- JsonlEventWriter -------------------------------------------------------

void JsonlEventWriter::on_send(const sim::Packet& p, TimePs ready) {
  ++events_;
  *os_ << "{\"ev\":\"send\",\"t\":" << p.created << ",\"id\":" << p.id << ",\"task\":" << p.task
       << ",\"src\":" << p.key.src << ",\"dst\":" << p.key.dst << ",\"size\":" << p.size
       << ",\"ready\":" << ready << "}\n";
}

void JsonlEventWriter::on_transmit(const sim::Packet& p, topo::NodeId from, topo::LinkId link,
                                   int direction, TimePs ready, TimePs start, TimePs finish) {
  ++events_;
  *os_ << "{\"ev\":\"transmit\",\"t\":" << ready << ",\"id\":" << p.id << ",\"from\":" << from
       << ",\"link\":" << link << ",\"dir\":" << direction << ",\"start\":" << start
       << ",\"finish\":" << finish << ",\"queued\":" << p.queued << "}\n";
}

void JsonlEventWriter::on_arrival(const sim::Packet& p, topo::NodeId node, TimePs first_bit,
                                  TimePs last_bit) {
  ++events_;
  *os_ << "{\"ev\":\"arrival\",\"t\":" << first_bit << ",\"id\":" << p.id << ",\"node\":" << node
       << ",\"last\":" << last_bit << "}\n";
}

void JsonlEventWriter::on_forward(const sim::Packet& p, topo::NodeId node, HopKind kind,
                                  TimePs first_bit, TimePs last_bit, TimePs decision_ready) {
  ++events_;
  *os_ << "{\"ev\":\"forward\",\"t\":" << first_bit << ",\"id\":" << p.id << ",\"node\":" << node
       << ",\"kind\":\"" << hop_kind_name(kind) << "\",\"last\":" << last_bit
       << ",\"decision\":" << decision_ready << ",\"hops\":" << p.hops << "}\n";
}

void JsonlEventWriter::on_delivery(const sim::Packet& p, TimePs delivered, TimePs latency) {
  ++events_;
  *os_ << "{\"ev\":\"delivery\",\"t\":" << delivered << ",\"id\":" << p.id
       << ",\"latency\":" << latency << "}\n";
}

void JsonlEventWriter::on_drop(const sim::Packet& p, DropReason reason, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"drop\",\"t\":" << when << ",\"id\":" << p.id << ",\"reason\":\""
       << drop_reason_name(reason) << "\"}\n";
}

void JsonlEventWriter::on_link_state(topo::LinkId link, bool up, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"link_state\",\"t\":" << when << ",\"link\":" << link
       << ",\"up\":" << (up ? "true" : "false") << "}\n";
}

void JsonlEventWriter::on_link_detected(topo::LinkId link, bool dead, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"link_detected\",\"t\":" << when << ",\"link\":" << link
       << ",\"dead\":" << (dead ? "true" : "false") << "}\n";
}

void JsonlEventWriter::on_link_degraded(topo::LinkId link, double loss_rate, TimePs when) {
  ++events_;
  char loss[32];
  std::snprintf(loss, sizeof(loss), "%.17g", loss_rate);
  *os_ << "{\"ev\":\"link_degraded\",\"t\":" << when << ",\"link\":" << link << ",\"loss\":" << loss
       << "}\n";
}

void JsonlEventWriter::on_probe(topo::LinkId link, bool delivered, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"probe\",\"t\":" << when << ",\"link\":" << link
       << ",\"delivered\":" << (delivered ? "true" : "false") << "}\n";
}

void JsonlEventWriter::on_health_transition(topo::LinkId link, routing::LinkHealth from,
                                            routing::LinkHealth to, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"health_transition\",\"t\":" << when << ",\"link\":" << link
       << ",\"from\":" << static_cast<int>(from) << ",\"to\":" << static_cast<int>(to) << "}\n";
}

void JsonlEventWriter::on_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) {
  ++events_;
  *os_ << "{\"ev\":\"flap_damped\",\"t\":" << when << ",\"link\":" << link
       << ",\"until\":" << suppressed_until << "}\n";
}

// --- decoding ---------------------------------------------------------------

namespace {

/// Payload words per event id; -1 marks an invalid id.
constexpr int kWordCount[64] = {
    -1, 4, 3, 4, 2, 2, 3, 1, 2, 1, 1, 2, 1, 1, 2,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};

/// Time arithmetic on decoded fields wraps in two's complement: damaged
/// records may hold any bit pattern, and decoding them must not
/// overflow.  No sum over an intact stream wraps.
TimePs plus(TimePs a, TimePs b) {
  return static_cast<TimePs>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
TimePs minus(TimePs a, TimePs b) {
  return static_cast<TimePs>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}

struct Rec {
  TimePs t = 0;
  std::uint64_t seq = 0;
  std::uint8_t id = 0;
  std::uint64_t w[4] = {};
};

struct PageRef {
  PageHeader header;
  const std::byte* payload = nullptr;
  std::uint64_t offset = 0;
};

/// Scan forward (8-byte aligned) for the next page magic.
std::size_t resync(const std::string& buf, std::size_t from) {
  std::size_t off = (from + 7) & ~std::size_t{7};
  for (; off + sizeof(PageHeader) <= buf.size(); off += 8) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, buf.data() + off, sizeof(magic));
    if (magic == kPageMagic) return off;
  }
  return buf.size();
}

void scan_pages(const std::string& buf, std::size_t file_index,
                std::map<std::pair<std::size_t, std::uint32_t>, std::vector<PageRef>>& streams,
                DecodeStats& stats) {
  std::size_t off = 0;
  const auto gap = [&](std::uint32_t stream, std::uint64_t at, const char* reason) {
    stats.gaps.push_back(StreamGap{stream, file_index, at, reason});
  };

  StreamFileHeader file_header;
  if (buf.size() >= sizeof(file_header)) {
    std::memcpy(&file_header, buf.data(), sizeof(file_header));
  }
  if (buf.size() < sizeof(file_header) || file_header.magic != kStreamFileMagic ||
      file_header.version != 1) {
    gap(0xFFFFFFFFu, 0, "bad stream file header");
    off = resync(buf, 0);
  } else {
    off = sizeof(file_header);
  }

  bool truncated_reported = false;
  while (off + sizeof(PageHeader) <= buf.size()) {
    PageHeader header;
    std::memcpy(&header, buf.data() + off, sizeof(header));
    if (header.magic != kPageMagic) {
      gap(0xFFFFFFFFu, off, "lost page sync");
      off = resync(buf, off + 8);
      continue;
    }
    if (header.payload_bytes > kPagePayloadBytes) {
      gap(header.stream_id, off, "implausible page header");
      off = resync(buf, off + 8);
      continue;
    }
    const std::size_t padded = (header.payload_bytes + 7) & ~std::size_t{7};
    if (off + sizeof(header) + header.payload_bytes > buf.size()) {
      gap(header.stream_id, off, "truncated page");
      truncated_reported = true;
      off = buf.size();
      break;
    }
    const auto* payload = reinterpret_cast<const std::byte*>(buf.data() + off + sizeof(header));
    if (crc32(payload, header.payload_bytes) != header.crc) {
      gap(header.stream_id, off, "page crc mismatch");
      off += sizeof(header) + padded;
      continue;
    }
    ++stats.pages;
    streams[{file_index, header.stream_id}].push_back(PageRef{header, payload, off});
    off += sizeof(header) + padded;
  }
  if (off != buf.size() && !truncated_reported) {
    gap(0xFFFFFFFFu, off, "truncated tail");
  }
}

std::vector<Rec> parse_stream(const std::vector<PageRef>& pages, std::size_t file_index,
                              DecodeStats& stats) {
  std::vector<Rec> out;
  std::uint64_t expected_page_seq = 0;
  bool first_page = true;
  for (const PageRef& page : pages) {
    if (!first_page && page.header.page_seq != expected_page_seq) {
      stats.gaps.push_back(StreamGap{page.header.stream_id, file_index, page.offset,
                                     "page sequence jump (pages lost)"});
    }
    first_page = false;
    expected_page_seq = page.header.page_seq + 1;

    TimePs t = page.header.base_time_ps;
    std::uint64_t seq = page.header.first_record_seq;
    const std::byte* p = page.payload;
    const std::byte* end = page.payload + page.header.payload_bytes;
    while (p + 8 <= end) {
      std::uint64_t header_word = 0;
      std::memcpy(&header_word, p, sizeof(header_word));
      const auto id = static_cast<std::uint8_t>(header_word & 63u);
      const int words = kWordCount[id];
      if (words < 0 || p + static_cast<std::ptrdiff_t>((words + 1) * 8) > end) {
        stats.gaps.push_back(StreamGap{page.header.stream_id, file_index,
                                       page.offset + sizeof(PageHeader) +
                                           static_cast<std::uint64_t>(p - page.payload),
                                       "torn record"});
        break;
      }
      t = plus(t, zigzag_decode(header_word >> 6));
      Rec rec;
      rec.t = t;
      rec.seq = seq++;
      rec.id = id;
      std::memcpy(rec.w, p + 8, static_cast<std::size_t>(words) * 8);
      out.push_back(rec);
      p += (words + 1) * 8;
      ++stats.records;
      stats.record_bytes += static_cast<std::uint64_t>((words + 1) * 8);
    }
  }
  return out;
}

/// Per-stream packet state rebuilt from kSend records.
struct PacketState {
  std::uint32_t task = 0;
  std::uint32_t size = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  TimePs created = 0;
  TimePs last_wire = 0;  ///< finish - start of the latest transmit
  TimePs queued = 0;
  int hops = 0;
};

sim::Packet make_packet(std::uint64_t id, const PacketState& s) {
  sim::Packet p;
  p.id = id;
  p.key.src = s.src;
  p.key.dst = s.dst;
  p.key.flow_hash = 0;  // not preserved by the stream
  p.size = static_cast<Bits>(s.size);
  p.created = s.created;
  p.task = static_cast<int>(s.task);
  p.hops = s.hops;
  p.queued = s.queued;
  return p;
}

class StreamReplayer {
 public:
  explicit StreamReplayer(const std::vector<TelemetrySink*>& sinks) : sinks_(&sinks) {}

  std::uint64_t orphans() const { return orphans_; }

  void replay(const Rec& rec) {
    const auto event = static_cast<StreamEventId>(rec.id);
    switch (event) {
      case StreamEventId::kSend: {
        PacketState s;
        s.size = static_cast<std::uint32_t>(rec.w[1] >> 32);
        s.task = static_cast<std::uint32_t>(rec.w[1]);
        s.src = static_cast<std::int32_t>(rec.w[2] >> 32);
        s.dst = static_cast<std::int32_t>(rec.w[2]);
        s.created = rec.t;
        packets_[rec.w[0]] = s;
        const sim::Packet p = make_packet(rec.w[0], s);
        const TimePs ready = plus(rec.t, static_cast<TimePs>(rec.w[3]));
        for (TelemetrySink* sink : *sinks_) sink->on_send(p, ready);
        return;
      }
      case StreamEventId::kTransmit:
      case StreamEventId::kTransmitWide: {
        PacketState* s = find(rec.w[0]);
        if (s == nullptr) return;
        const bool wide = event == StreamEventId::kTransmitWide;
        const auto wait = static_cast<TimePs>(wide ? rec.w[2] : rec.w[2] >> 32);
        const auto wire =
            static_cast<TimePs>(wide ? rec.w[3] : rec.w[2] & 0xFFFFFFFFull);
        const auto from = static_cast<topo::NodeId>(static_cast<std::int32_t>(rec.w[1] >> 32));
        const auto line = static_cast<std::uint32_t>(rec.w[1]);
        const auto link = static_cast<topo::LinkId>(line >> 1);
        const int direction = static_cast<int>(line & 1u);
        s->queued = plus(s->queued, wait);  // the live sink sees queued already bumped
        s->last_wire = wire;
        const sim::Packet p = make_packet(rec.w[0], *s);
        for (TelemetrySink* sink : *sinks_) {
          sink->on_transmit(p, from, link, direction, rec.t, plus(rec.t, wait),
                            plus(plus(rec.t, wait), wire));
        }
        return;
      }
      case StreamEventId::kArrival: {
        PacketState* s = find(rec.w[0]);
        if (s == nullptr) return;
        const auto node = static_cast<topo::NodeId>(static_cast<std::int32_t>(rec.w[1]));
        const sim::Packet p = make_packet(rec.w[0], *s);
        for (TelemetrySink* sink : *sinks_) {
          sink->on_arrival(p, node, rec.t, plus(rec.t, s->last_wire));
        }
        return;
      }
      case StreamEventId::kForward:
      case StreamEventId::kForwardWide: {
        PacketState* s = find(rec.w[0]);
        if (s == nullptr) return;
        const bool wide = event == StreamEventId::kForwardWide;
        const auto node = static_cast<topo::NodeId>(static_cast<std::int32_t>(rec.w[1] >> 32));
        const auto low = static_cast<std::uint32_t>(rec.w[1]);
        const auto kind = static_cast<HopKind>(low >> 30);
        const auto delta = static_cast<TimePs>(wide ? rec.w[2] : low & 0x3FFFFFFFu);
        // The simulator bumps the hop count for switch hops before
        // firing on_forward; mirror that so replayed packets match.
        if (kind != HopKind::kServerRelay) ++s->hops;
        const sim::Packet p = make_packet(rec.w[0], *s);
        for (TelemetrySink* sink : *sinks_) {
          sink->on_forward(p, node, kind, rec.t, plus(rec.t, s->last_wire), plus(rec.t, delta));
        }
        return;
      }
      case StreamEventId::kDelivery: {
        PacketState* s = find(rec.w[0]);
        if (s == nullptr) return;
        const sim::Packet p = make_packet(rec.w[0], *s);
        const TimePs latency = minus(rec.t, s->created);
        packets_.erase(rec.w[0]);
        for (TelemetrySink* sink : *sinks_) sink->on_delivery(p, rec.t, latency);
        return;
      }
      case StreamEventId::kDrop: {
        PacketState* s = find(rec.w[0]);
        if (s == nullptr) return;
        const sim::Packet p = make_packet(rec.w[0], *s);
        const auto reason = static_cast<DropReason>(rec.w[1]);
        packets_.erase(rec.w[0]);
        for (TelemetrySink* sink : *sinks_) sink->on_drop(p, reason, rec.t);
        return;
      }
      case StreamEventId::kLinkState: {
        const auto link = static_cast<topo::LinkId>(rec.w[0] >> 1);
        for (TelemetrySink* sink : *sinks_) sink->on_link_state(link, (rec.w[0] & 1) != 0, rec.t);
        return;
      }
      case StreamEventId::kLinkDetected: {
        const auto link = static_cast<topo::LinkId>(rec.w[0] >> 1);
        for (TelemetrySink* sink : *sinks_) {
          sink->on_link_detected(link, (rec.w[0] & 1) != 0, rec.t);
        }
        return;
      }
      case StreamEventId::kLinkDegraded: {
        const auto link = static_cast<topo::LinkId>(static_cast<std::int32_t>(rec.w[0]));
        double loss = 0.0;
        std::memcpy(&loss, &rec.w[1], sizeof(loss));
        for (TelemetrySink* sink : *sinks_) sink->on_link_degraded(link, loss, rec.t);
        return;
      }
      case StreamEventId::kProbe: {
        const auto link = static_cast<topo::LinkId>(rec.w[0] >> 1);
        for (TelemetrySink* sink : *sinks_) sink->on_probe(link, (rec.w[0] & 1) != 0, rec.t);
        return;
      }
      case StreamEventId::kHealthTransition: {
        const auto link = static_cast<topo::LinkId>(rec.w[0] >> 8);
        const auto from = static_cast<routing::LinkHealth>((rec.w[0] >> 4) & 0xF);
        const auto to = static_cast<routing::LinkHealth>(rec.w[0] & 0xF);
        for (TelemetrySink* sink : *sinks_) sink->on_health_transition(link, from, to, rec.t);
        return;
      }
      case StreamEventId::kFlapDamped: {
        const auto link = static_cast<topo::LinkId>(static_cast<std::int32_t>(rec.w[0]));
        const TimePs until = plus(rec.t, static_cast<TimePs>(rec.w[1]));
        for (TelemetrySink* sink : *sinks_) sink->on_flap_damped(link, until, rec.t);
        return;
      }
    }
  }

 private:
  PacketState* find(std::uint64_t id) {
    const auto it = packets_.find(id);
    if (it == packets_.end()) {
      // The send record was lost to a gap; count and drop.
      ++orphans_;
      return nullptr;
    }
    return &it->second;
  }

  const std::vector<TelemetrySink*>* sinks_;
  std::unordered_map<std::uint64_t, PacketState> packets_;
  std::uint64_t orphans_ = 0;
};

/// Sort class + entity for the canonical order.  Class 0 (link /
/// control events) precedes class 1 (packet events) at equal times —
/// the decode-side mirror of the engine rule that stamp-0 control
/// events run before stamped packet events.
struct CanonClass {
  int cls = 0;
  std::uint64_t entity = 0;
};

CanonClass canon_class(const Rec& rec) {
  switch (static_cast<StreamEventId>(rec.id)) {
    case StreamEventId::kSend:
    case StreamEventId::kTransmit:
    case StreamEventId::kTransmitWide:
    case StreamEventId::kArrival:
    case StreamEventId::kForward:
    case StreamEventId::kForwardWide:
    case StreamEventId::kDelivery:
    case StreamEventId::kDrop:
      return {1, rec.w[0]};  // packet id
    case StreamEventId::kLinkState:
    case StreamEventId::kLinkDetected:
    case StreamEventId::kProbe:
      return {0, rec.w[0] >> 1};  // link id (low bit is a flag)
    case StreamEventId::kHealthTransition:
      return {0, rec.w[0] >> 8};
    case StreamEventId::kLinkDegraded:
    case StreamEventId::kFlapDamped:
      return {0, rec.w[0]};
  }
  return {0, rec.w[0]};
}

}  // namespace

DecodeStats decode_streams(const std::vector<std::istream*>& files,
                           const std::vector<TelemetrySink*>& sinks,
                           const DecodeOptions& options) {
  DecodeStats stats;

  // Load and page-scan every file.  The decoder is offline tooling:
  // holding the raw bytes keeps record parsing zero-copy.
  std::vector<std::string> buffers;
  buffers.reserve(files.size());
  std::map<std::pair<std::size_t, std::uint32_t>, std::vector<PageRef>> stream_pages;
  for (std::size_t i = 0; i < files.size(); ++i) {
    QUARTZ_REQUIRE(files[i] != nullptr, "null stream input");
    std::string buf(std::istreambuf_iterator<char>(*files[i]), std::istreambuf_iterator<char>{});
    buffers.push_back(std::move(buf));
    scan_pages(buffers.back(), i, stream_pages, stats);
  }
  stats.streams = stream_pages.size();

  // Parse each stream's records, then k-way merge by (time, stream,
  // seq).  Streams are visited in (file, stream id) order, so the
  // merged order is independent of how pages interleaved in the file —
  // which is what makes multi-worker captures byte-stable.
  std::vector<std::vector<Rec>> streams;
  streams.reserve(stream_pages.size());
  for (const auto& [key, pages] : stream_pages) {
    streams.push_back(parse_stream(pages, key.first, stats));
  }

  if (options.canonical) {
    // Shard-invariant total order: flatten, sort, replay through one
    // shared replayer (a packet's records may span streams).
    struct Flat {
      const Rec* rec;
      CanonClass canon;
      std::size_t stream;
    };
    std::vector<Flat> flat;
    flat.reserve(stats.records);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      for (const Rec& rec : streams[s]) flat.push_back(Flat{&rec, canon_class(rec), s});
    }
    std::sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
      if (a.rec->t != b.rec->t) return a.rec->t < b.rec->t;
      if (a.canon.cls != b.canon.cls) return a.canon.cls < b.canon.cls;
      if (a.canon.entity != b.canon.entity) return a.canon.entity < b.canon.entity;
      if (a.rec->seq != b.rec->seq) return a.rec->seq < b.rec->seq;
      return a.stream < b.stream;
    });
    StreamReplayer replayer(sinks);
    for (const Flat& item : flat) replayer.replay(*item.rec);
    stats.orphan_records += replayer.orphans();
    return stats;
  }

  std::vector<StreamReplayer> replayers(streams.size(), StreamReplayer(sinks));
  using HeapItem = std::tuple<TimePs, std::size_t, std::uint64_t>;  // (time, stream, seq)
  const auto greater = [](const HeapItem& a, const HeapItem& b) { return a > b; };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)> heap(greater);
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (!streams[s].empty()) heap.emplace(streams[s][0].t, s, streams[s][0].seq);
  }
  while (!heap.empty()) {
    const std::size_t s = std::get<1>(heap.top());
    heap.pop();
    const Rec& rec = streams[s][cursor[s]];
    replayers[s].replay(rec);
    if (++cursor[s] < streams[s].size()) {
      const Rec& next = streams[s][cursor[s]];
      heap.emplace(next.t, s, next.seq);
    }
  }
  for (const StreamReplayer& replayer : replayers) stats.orphan_records += replayer.orphans();
  return stats;
}

DecodeStats decode_streams(const std::vector<std::istream*>& files,
                           const std::vector<TelemetrySink*>& sinks) {
  return decode_streams(files, sinks, DecodeOptions{});
}

DecodeStats decode_stream(std::istream& in, const std::vector<TelemetrySink*>& sinks) {
  return decode_streams({&in}, sinks);
}

DecodeStats decode_jsonl(const std::vector<std::istream*>& files, std::ostream& out,
                         const DecodeOptions& options) {
  JsonlEventWriter writer(out);
  return decode_streams(files, {&writer}, options);
}

}  // namespace quartz::telemetry
