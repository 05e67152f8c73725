// quartz-decode: turn .qtz binary event streams back into JSONL / CSV.
//
// The simulator's hot path writes compact binary records (see
// telemetry/binary_stream.hpp); everything human- or jq-facing happens
// here, after the fact.  Multiple files (and multiple streams inside
// one file — replica sweeps) are merged deterministically by
// (sim time, stream, record seq), so the decoded output is
// byte-identical no matter how many workers produced the pages.
//
//   $ ./quartz_decode run.csv.qtz                        # JSONL to stdout
//   $ ./quartz_decode --format=csv --out=ev.csv run.csv.qtz
//   $ ./quartz_decode --format=summary run.csv.qtz       # counts + gaps
//   $ ./quartz_decode --digest run.csv.qtz               # FNV-1a of the JSONL
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "sim/packet.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace quartz;
using namespace quartz::telemetry;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format=jsonl|csv|summary] [--canonical] [--out=FILE] [--digest] "
               "FILE.qtz...\n"
               "  --format=jsonl    one JSON object per event (default)\n"
               "  --format=csv      one row per event, sparse columns\n"
               "  --format=summary  per-event counts, stream stats and gaps\n"
               "  --canonical       shard-invariant merge order: a capture taken at\n"
               "                    --shards=N decodes byte-identical to --shards=1\n"
               "  --out=FILE        write there instead of stdout\n"
               "  --digest          also print fnv1a:<hex> of the formatted output\n",
               argv0);
  return 1;
}

/// Sparse-column CSV: every event type shares one header row; fields
/// that do not apply to an event stay empty.  Times are picoseconds.
class CsvEventWriter final : public TelemetrySink {
 public:
  explicit CsvEventWriter(std::ostream& os) : os_(&os) {
    *os_ << "ev,t,packet,task,src,dst,size_bits,node,link,dir,t2,t3,detail\n";
  }

  void on_send(const sim::Packet& p, TimePs ready) override {
    *os_ << "send," << p.created << ',' << p.id << ',' << p.task << ',' << p.key.src << ','
         << p.key.dst << ',' << p.size << ",,,," << ready << ",,\n";
  }
  void on_transmit(const sim::Packet& p, topo::NodeId from, topo::LinkId link, int direction,
                   TimePs ready, TimePs start, TimePs finish) override {
    *os_ << "transmit," << ready << ',' << p.id << ',' << p.task << ",,,," << from << ',' << link
         << ',' << direction << ',' << start << ',' << finish << ",\n";
  }
  void on_arrival(const sim::Packet& p, topo::NodeId node, TimePs first_bit,
                  TimePs last_bit) override {
    *os_ << "arrival," << first_bit << ',' << p.id << ',' << p.task << ",,,," << node << ",,,"
         << last_bit << ",,\n";
  }
  void on_forward(const sim::Packet& p, topo::NodeId node, HopKind kind, TimePs first_bit,
                  TimePs last_bit, TimePs decision_ready) override {
    *os_ << "forward," << first_bit << ',' << p.id << ',' << p.task << ",,,," << node << ",,,"
         << last_bit << ',' << decision_ready << ',' << hop_kind_name(kind) << '\n';
  }
  void on_delivery(const sim::Packet& p, TimePs delivered, TimePs latency) override {
    *os_ << "delivery," << delivered << ',' << p.id << ',' << p.task << ",,,,,,,," << latency
         << ",\n";
  }
  void on_drop(const sim::Packet& p, DropReason reason, TimePs when) override {
    *os_ << "drop," << when << ',' << p.id << ',' << p.task << ",,,,,,,,,"
         << drop_reason_name(reason) << '\n';
  }
  void on_link_state(topo::LinkId link, bool up, TimePs when) override {
    *os_ << "link_state," << when << ",,,,,,," << link << ",,,," << (up ? "up" : "down") << '\n';
  }
  void on_link_detected(topo::LinkId link, bool dead, TimePs when) override {
    *os_ << "link_detected," << when << ",,,,,,," << link << ",,,,"
         << (dead ? "dead" : "recovered") << '\n';
  }
  void on_link_degraded(topo::LinkId link, double loss_rate, TimePs when) override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", loss_rate);
    *os_ << "link_degraded," << when << ",,,,,,," << link << ",,,," << buf << '\n';
  }
  void on_probe(topo::LinkId link, bool delivered, TimePs when) override {
    *os_ << "probe," << when << ",,,,,,," << link << ",,,," << (delivered ? "delivered" : "lost")
         << '\n';
  }
  void on_health_transition(topo::LinkId link, routing::LinkHealth from, routing::LinkHealth to,
                            TimePs when) override {
    *os_ << "health_transition," << when << ",,,,,,," << link << ",,,," << static_cast<int>(from)
         << "->" << static_cast<int>(to) << '\n';
  }
  void on_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) override {
    *os_ << "flap_damped," << when << ",,,,,,," << link << ",,," << suppressed_until << ",\n";
  }

 private:
  std::ostream* os_;
};

/// Counts events by type for --format=summary.
class CountingSink final : public TelemetrySink {
 public:
  void on_send(const sim::Packet&, TimePs) override { ++counts_["send"]; }
  void on_transmit(const sim::Packet&, topo::NodeId, topo::LinkId, int, TimePs, TimePs,
                   TimePs) override {
    ++counts_["transmit"];
  }
  void on_arrival(const sim::Packet&, topo::NodeId, TimePs, TimePs) override {
    ++counts_["arrival"];
  }
  void on_forward(const sim::Packet&, topo::NodeId, HopKind, TimePs, TimePs, TimePs) override {
    ++counts_["forward"];
  }
  void on_delivery(const sim::Packet&, TimePs, TimePs) override { ++counts_["delivery"]; }
  void on_drop(const sim::Packet&, DropReason, TimePs) override { ++counts_["drop"]; }
  void on_link_state(topo::LinkId, bool, TimePs) override { ++counts_["link_state"]; }
  void on_link_detected(topo::LinkId, bool, TimePs) override { ++counts_["link_detected"]; }
  void on_link_degraded(topo::LinkId, double, TimePs) override { ++counts_["link_degraded"]; }
  void on_probe(topo::LinkId, bool, TimePs) override { ++counts_["probe"]; }
  void on_health_transition(topo::LinkId, routing::LinkHealth, routing::LinkHealth,
                            TimePs) override {
    ++counts_["health_transition"];
  }
  void on_flap_damped(topo::LinkId, TimePs, TimePs) override { ++counts_["flap_damped"]; }

  const std::map<std::string, std::uint64_t>& counts() const { return counts_; }

 private:
  std::map<std::string, std::uint64_t> counts_;
};

void report_gaps(const DecodeStats& stats) {
  for (const StreamGap& gap : stats.gaps) {
    std::fprintf(stderr, "gap: file %zu offset %zu: %s\n", gap.file_index, gap.byte_offset,
                 gap.reason.c_str());
  }
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown_keys({"format", "canonical", "out", "digest", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& key : unknown) std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    return usage(argv[0]);
  }
  const std::string format = flags.get("format", "jsonl");
  if (format != "jsonl" && format != "csv" && format != "summary") {
    std::fprintf(stderr, "--format must be jsonl, csv or summary, got '%s'\n", format.c_str());
    return usage(argv[0]);
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr, "no input files\n");
    return usage(argv[0]);
  }

  std::vector<std::ifstream> files;
  std::vector<std::istream*> inputs;
  for (const std::string& path : flags.positional()) {
    files.emplace_back(path, std::ios::binary);
    if (!files.back()) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
  }
  for (std::ifstream& f : files) inputs.push_back(&f);

  // Decode into a buffer first so --digest hashes exactly the bytes the
  // user receives, whatever the destination.
  std::ostringstream buffer;
  DecodeStats stats;
  CountingSink counter;
  DecodeOptions options;
  options.canonical = flags.get_bool("canonical");
  if (format == "jsonl") {
    stats = decode_jsonl(inputs, buffer, options);
  } else if (format == "csv") {
    CsvEventWriter writer(buffer);
    std::vector<TelemetrySink*> sinks = {&writer};
    stats = decode_streams(inputs, sinks, options);
  } else {
    std::vector<TelemetrySink*> sinks = {&counter};
    stats = decode_streams(inputs, sinks, options);
    buffer << "streams: " << stats.streams << "\npages: " << stats.pages
           << "\nrecords: " << stats.records << "\nrecord_bytes: " << stats.record_bytes
           << "\norphan_records: " << stats.orphan_records << "\ngaps: " << stats.gaps.size()
           << '\n';
    for (const auto& [name, count] : counter.counts()) {
      buffer << "event." << name << ": " << count << '\n';
    }
  }
  report_gaps(stats);

  const std::string text = buffer.str();
  if (flags.has("out")) {
    const std::string path = flags.get("out");
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  } else {
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  if (flags.get_bool("digest")) {
    std::fprintf(stderr, "fnv1a:%016" PRIx64 "\n", fnv1a(text.data(), text.size(), kFnvOffsetBasis));
  }
  // Gaps are recoverable (that is the point of the page format), but a
  // stream that needed recovery should not look pristine in scripts.
  return stats.gaps.empty() ? 0 : 2;
}

int main(int argc, char** argv) { return cli::guarded_main(run, argc, argv); }
