// Deterministic checkpoint serialization (.qsnap).
//
// A snapshot is the full state of a simulation engine and everything
// riding it, written so that a process killed without warning (crash,
// OOM, SIGKILL) can resume bit-exactly: the run restored from a
// checkpoint at time T produces delivery/drop/telemetry digests
// identical to the uninterrupted run.
//
// On-disk layout (little-endian):
//   file  := FileHeader chunk* end-chunk
//   chunk := id:u32 crc:u32 payload_bytes:u64 payload pad-to-8
//
// Every chunk carries a CRC-32 over its payload, and the file is only
// valid when the walk terminates on the "END " chunk — so a torn or
// truncated write is detected structurally, never half-applied.  Files
// are written via an atomic tmp-file + rename (+ fsync of file and
// directory), and load_latest_intact() scans a checkpoint directory
// newest-first, falling back past damaged snapshots with a structured
// warning per rejected file.
//
// Writer/Reader are deliberately dumb byte cursors: each component
// (engine, network, fault scheduler, monitor, serve loop) appends its
// own fields in a fixed order and reads them back in the same order;
// the owner brackets components in chunks.  See docs/robustness.md.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace quartz::snapshot {

inline constexpr std::array<char, 8> kFileMagic = {'Q', 'S', 'N', 'A',
                                                   'P', '\n', '0', '1'};
/// Version 2: the engine saves one event record per pending timer (no
/// probe or closure events) and one handler table.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Four-character chunk tag packed little-endian ("NETW" etc).
constexpr std::uint32_t chunk_id(const char (&tag)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

inline constexpr std::uint32_t kEndChunk = chunk_id("END ");

/// Serializes one snapshot into a growing byte buffer.  All multi-byte
/// values are little-endian; every primitive must be written inside an
/// open chunk.
class Writer {
 public:
  void begin_chunk(std::uint32_t id);
  /// Stamp the open chunk's payload size and CRC and pad to 8 bytes.
  void end_chunk();

  void put_u8(std::uint8_t v) { append(&v, 1); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s);
  void put_bytes(const void* data, std::size_t bytes);
  void put_rng(const Rng& rng);
  void put_f64_vec(const std::vector<double>& v);

  /// The assembled chunk stream (no file header); valid once every
  /// chunk is closed.
  const std::vector<std::byte>& buffer() const {
    QUARTZ_CHECK(chunk_start_ < 0, "snapshot writer has an open chunk");
    return buffer_;
  }

 private:
  void append(const void* data, std::size_t bytes);

  std::vector<std::byte> buffer_;
  std::ptrdiff_t chunk_start_ = -1;  ///< offset of the open chunk header
};

/// Parses and validates one snapshot.  Construction via from_bytes /
/// from_file validates the header, every chunk CRC and the terminating
/// end-chunk up front, so a Reader in hand is a structurally intact
/// snapshot; reading past a chunk end or a type mismatch is a caller
/// bug and aborts via QUARTZ_REQUIRE.
class Reader {
 public:
  static std::optional<Reader> from_bytes(std::vector<std::byte> data,
                                          std::string* error);
  static std::optional<Reader> from_file(const std::string& path,
                                         std::string* error);

  /// Checkpoint sequence number from the file header (0 for in-memory
  /// round trips assembled without one).
  std::uint64_t sequence() const { return sequence_; }

  /// Open the next chunk; its id must match (components are read in
  /// the order they were written).
  void open_chunk(std::uint32_t id);
  /// Close the open chunk; the payload must be fully consumed.
  void close_chunk();

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  bool get_bool() { return get_u8() != 0; }
  std::string get_string();
  /// An element count (written with put_u64), checked against the open
  /// chunk: `count` items of at least `item_bytes` each must still fit,
  /// so a damaged count throws instead of sizing a huge allocation.
  std::uint64_t get_count(std::size_t item_bytes);
  void get_rng(Rng& rng);
  std::vector<double> get_f64_vec();

 private:
  Reader() = default;

  const std::byte* take(std::size_t bytes);

  std::vector<std::byte> data_;
  std::uint64_t sequence_ = 0;
  std::size_t cursor_ = 0;     ///< next unread byte
  std::size_t chunk_end_ = 0;  ///< payload end of the open chunk
  bool in_chunk_ = false;
};

// --- checkpoint files -------------------------------------------------------

/// `dir/ckpt-<sequence, 8 digits>.qsnap`.
std::string checkpoint_path(const std::string& dir, std::uint64_t sequence);

/// The complete snapshot byte stream (file header + `writer`'s chunks)
/// — what write_file_atomic puts on disk, for in-memory round trips
/// through Reader::from_bytes.
std::vector<std::byte> file_bytes(const Writer& writer, std::uint64_t sequence);

/// Write `writer`'s chunks as a complete snapshot file: serialize to
/// `path + ".tmp"`, fsync, rename over `path`, fsync the directory.
/// Either the old file or the complete new one exists at every instant.
void write_file_atomic(const std::string& path, const Writer& writer,
                       std::uint64_t sequence);

struct CheckpointFile {
  std::string path;
  std::uint64_t sequence = 0;
};

/// Every `ckpt-*.qsnap` in `dir`, sorted by ascending sequence.
std::vector<CheckpointFile> list_checkpoints(const std::string& dir);

/// Newest structurally intact checkpoint in `dir`.  Damaged files are
/// skipped newest-first; each rejection appends one structured line to
/// `warnings` ("snapshot <path> rejected: <reason>").  nullopt when no
/// intact snapshot exists.
std::optional<Reader> load_latest_intact(const std::string& dir,
                                         std::string* warnings);

}  // namespace quartz::snapshot
