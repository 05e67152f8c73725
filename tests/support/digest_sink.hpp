// FNV-1a digests of a run's delivery and drop streams, for tests that
// pin simulation results to committed literals.
#pragma once

#include <cstdint>

#include "sim/packet.hpp"
#include "telemetry/sink.hpp"

namespace quartz::test {

/// Any change in which packet arrives when (or is dropped why) changes
/// the digests.  `stream_digest` folds both streams in event order.
class DigestSink : public telemetry::TelemetrySink {
 public:
  void on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) override {
    for (std::uint64_t* digest : {&delivery_digest, &stream_digest}) {
      mix(*digest, packet.id);
      mix(*digest, static_cast<std::uint64_t>(delivered));
      mix(*digest, static_cast<std::uint64_t>(latency));
    }
    ++deliveries;
  }
  void on_drop(const sim::Packet& packet, telemetry::DropReason reason, TimePs when) override {
    for (std::uint64_t* digest : {&drop_digest, &stream_digest}) {
      mix(*digest, packet.id);
      mix(*digest, static_cast<std::uint64_t>(reason));
      mix(*digest, static_cast<std::uint64_t>(when));
    }
    ++drops;
  }

  std::uint64_t delivery_digest = 14695981039346656037ull;
  std::uint64_t drop_digest = 14695981039346656037ull;
  std::uint64_t stream_digest = 14695981039346656037ull;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;

 private:
  static void mix(std::uint64_t& digest, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xFF;
      digest *= 1099511628211ull;
    }
  }
};

}  // namespace quartz::test
