// Post-hoc decoding of .qtz binary event streams.
//
// decode_streams() parses one or more stream files, merges every
// contained stream deterministically by (time, stream, record seq) and
// replays the records into ordinary TelemetrySinks — so PacketTracer,
// PeriodicSampler, FaultTimeline and JsonlEventWriter double as
// decoders: anything that can watch a live simulation can re-watch a
// recorded one.  Packet state (task, size, endpoints, creation time,
// accumulated queueing, hop count) is carried once on the send record
// and rebuilt per packet id, so replayed sink calls see the same
// arguments the live sink saw.
//
// Robustness: a page whose CRC fails, whose header is implausible or
// whose tail is cut off is skipped — the decoder re-syncs on the next
// page magic (pages are 8-byte aligned) and reports a StreamGap
// instead of crashing.  Records referring to a packet whose send
// record was lost to a gap are counted as orphans and dropped.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/units.hpp"
#include "telemetry/sink.hpp"

namespace quartz::telemetry {

/// A damaged or missing region the decoder skipped.
struct StreamGap {
  /// Stream the gap belongs to; 0xFFFFFFFF when the damage made the
  /// owner unidentifiable (torn page header).
  std::uint32_t stream_id = 0xFFFFFFFFu;
  std::size_t file_index = 0;   ///< which input file
  std::uint64_t byte_offset = 0;  ///< where in that file
  std::string reason;
};

struct DecodeStats {
  std::uint64_t pages = 0;
  std::uint64_t records = 0;
  std::uint64_t record_bytes = 0;  ///< payload bytes decoded
  std::uint64_t streams = 0;
  /// Records whose packet's send record was lost to a gap.
  std::uint64_t orphan_records = 0;
  std::vector<StreamGap> gaps;
};

struct DecodeOptions {
  /// Canonical merge: instead of the per-stream (time, stream, seq)
  /// heap, flatten every record and sort by (time, class — link
  /// events before packet events, mirroring the engine's control-
  /// events-first stamp rule — entity id, record seq, stream), then
  /// replay through ONE shared replayer so a packet whose records
  /// span streams (a sharded capture: kSend lands in the source
  /// shard's stream, later hops elsewhere) still rebuilds coherent
  /// state.  The output is a total order independent of how the
  /// capture was sharded: a --shards=8 capture decodes byte-identical
  /// to the --shards=1 capture of the same run.  Within one (time,
  /// entity) group every record comes from the single stream that
  /// owned the entity at that instant, so the per-stream seq tiebreak
  /// reproduces the engine's intra-entity order in both captures.
  bool canonical = false;
};

/// Decode every stream in `files`, merge by (time, file, stream id,
/// record seq) — or the canonical shard-invariant order, see
/// DecodeOptions — and replay into each sink in order.  Sinks may be
/// empty (pure validation / stats pass).
DecodeStats decode_streams(const std::vector<std::istream*>& files,
                           const std::vector<TelemetrySink*>& sinks,
                           const DecodeOptions& options);
DecodeStats decode_streams(const std::vector<std::istream*>& files,
                           const std::vector<TelemetrySink*>& sinks);

/// Single-file convenience.
DecodeStats decode_stream(std::istream& in, const std::vector<TelemetrySink*>& sinks);

/// Decode `files` through a JsonlEventWriter into `out`: what
/// `quartz_decode` prints and every CLI's --telemetry=jsonl writes, in
/// the (time, stream, seq) merge order — multi-run captures (sweep
/// cells, replicas) interleave by time, not run after run.
DecodeStats decode_jsonl(const std::vector<std::istream*>& files, std::ostream& out,
                         const DecodeOptions& options = {});

/// The canonical JSONL projection of the event stream: one compact
/// JSON object per event, integer-picosecond times, only fields the
/// binary stream preserves.  Fed from decode_streams() in production;
/// tests and `quartz_paper --figure=telemetry` also attach it to a live
/// Network beside a BinaryStreamSink and require the decoded capture to
/// match it byte for byte — the reference that pins the capture as
/// lossless.
class JsonlEventWriter final : public TelemetrySink {
 public:
  explicit JsonlEventWriter(std::ostream& os) : os_(&os) {}

  std::uint64_t events() const { return events_; }

  void on_send(const sim::Packet& packet, TimePs ready) override;
  void on_transmit(const sim::Packet& packet, topo::NodeId from, topo::LinkId link, int direction,
                   TimePs ready, TimePs start, TimePs finish) override;
  void on_arrival(const sim::Packet& packet, topo::NodeId node, TimePs first_bit,
                  TimePs last_bit) override;
  void on_forward(const sim::Packet& packet, topo::NodeId node, HopKind kind, TimePs first_bit,
                  TimePs last_bit, TimePs decision_ready) override;
  void on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) override;
  void on_drop(const sim::Packet& packet, DropReason reason, TimePs when) override;
  void on_link_state(topo::LinkId link, bool up, TimePs when) override;
  void on_link_detected(topo::LinkId link, bool dead, TimePs when) override;
  void on_link_degraded(topo::LinkId link, double loss_rate, TimePs when) override;
  void on_probe(topo::LinkId link, bool delivered, TimePs when) override;
  void on_health_transition(topo::LinkId link, routing::LinkHealth from, routing::LinkHealth to,
                            TimePs when) override;
  void on_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) override;

 private:
  std::ostream* os_;
  std::uint64_t events_ = 0;
};

}  // namespace quartz::telemetry
