// Compact binary event-stream telemetry (.qtz).
//
// The observability cost model at 100k-switch scale: a run emits
// billions of events, so the hot path must be a few stores — no
// formatting, no allocation, no locks.  BinaryStream writes fixed-size
// POD records (one packed header word carrying the event id and a
// zigzag sim-time delta, plus 0-4 payload words) into 64 KiB pages.
// Full pages are sealed (payload size + CRC32 stamped into the page
// header) and handed to a background drainer thread over a lock-free
// SPSC ring; the drainer appends them to a PageSink and recycles the
// page buffer back over a second SPSC ring, so the writer only ever
// touches the engine thread.  In synchronous mode (sweep workers,
// tests) there is no thread: seal() calls the sink inline and reuses
// the same page, which also makes the steady state allocation-free.
//
// On-disk layout (little-endian):
//   file   := FileHeader page*
//   page   := PageHeader payload[payload_bytes] pad-to-8
//   record := header_word payload_word*
//   header_word := zigzag(time - prev_time) << 6 | event_id
//
// Each page decodes standalone: its header carries the stream id, the
// page and record sequence numbers, and the time-delta base, so a torn
// or truncated page costs exactly that page (the decoder re-syncs on
// the next page magic and reports the gap; see telemetry/decode.hpp).
#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace quartz::telemetry {

inline constexpr std::array<char, 8> kStreamFileMagic = {'Q', 'T', 'Z', 'S',
                                                         'T', 'R', 'M', '1'};
inline constexpr std::uint32_t kPageMagic = 0x47505A51u;  // "QZPG"
inline constexpr std::size_t kPageBytes = 64 * 1024;

inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

#pragma pack(push, 1)
struct StreamFileHeader {
  std::array<char, 8> magic = kStreamFileMagic;
  std::uint32_t version = 1;
  std::uint32_t reserved = 0;
};

struct PageHeader {
  std::uint32_t magic = kPageMagic;
  std::uint32_t stream_id = 0;
  std::uint64_t page_seq = 0;          ///< per-stream, 0-based
  std::uint64_t first_record_seq = 0;  ///< seq of the page's first record
  std::int64_t base_time_ps = 0;       ///< delta base for the first record
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;  ///< quartz::crc32 of the payload bytes
};
#pragma pack(pop)

static_assert(sizeof(StreamFileHeader) == 16);
static_assert(sizeof(PageHeader) == 40);

inline constexpr std::size_t kPagePayloadBytes = kPageBytes - sizeof(PageHeader);

/// One ring-buffer page: header plus record payload.
struct Page {
  PageHeader header;
  alignas(8) std::byte payload[kPagePayloadBytes];
};

static_assert(sizeof(Page) == kPageBytes);

/// Where sealed pages go.  accept() may be called from a drainer
/// thread, so implementations synchronize internally (StreamFile holds
/// a mutex) — which is also what lets sweep workers share one sink.
class PageSink {
 public:
  virtual ~PageSink() = default;
  virtual void accept(const Page& page) = 0;
};

/// Appends sealed pages to a std::ostream or a file descriptor in the
/// on-disk format.  The file header is written on construction; pages
/// are padded to 8-byte boundaries so the decoder can re-sync on torn
/// writes.  Thread-safe: multiple streams (sweep workers) may share one
/// file.
///
/// The path constructor opens the file descriptor directly, which is
/// what makes flush() crash-durable: it fsyncs, so every page sealed
/// before the flush survives a SIGKILL (the decoder then reports at
/// most a tail-truncation gap for pages sealed after it).  The ostream
/// constructor keeps the old in-memory/test-friendly behaviour; there
/// flush() only flushes the stream buffer.
class StreamFile final : public PageSink {
 public:
  explicit StreamFile(std::ostream& os);
  /// Open (create/truncate) `path` fd-backed.  Check ok() afterwards.
  explicit StreamFile(const std::string& path);
  ~StreamFile() override;

  StreamFile(const StreamFile&) = delete;
  StreamFile& operator=(const StreamFile&) = delete;

  void accept(const Page& page) override;

  /// Push every accepted page to stable storage.  fsync when fd-backed
  /// (checkpoint barriers call this so the .qtz file never lags the
  /// .qsnap it accompanies); plain stream flush otherwise.
  void flush();

  /// False once the file failed to open or any write/fsync failed.
  bool ok() const { return ok_.load(std::memory_order_relaxed); }

  std::uint64_t pages() const { return pages_.load(std::memory_order_relaxed); }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  void write_raw(const void* data, std::size_t bytes);

  std::mutex mutex_;
  std::ostream* os_ = nullptr;
  int fd_ = -1;
  std::atomic<bool> ok_{true};
  std::atomic<std::uint64_t> pages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Swallows sealed pages, counting them — the bench's pure-encode sink.
class NullPageSink final : public PageSink {
 public:
  void accept(const Page& page) override;
  std::uint64_t pages() const { return pages_.load(std::memory_order_relaxed); }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> pages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Single-producer single-consumer pointer ring (capacity N-1).
template <std::size_t N>
class SpscRing {
 public:
  bool push(Page* page) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) % N;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    slots_[head] = page;
    head_.store(next, std::memory_order_release);
    return true;
  }
  Page* pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return nullptr;
    Page* page = slots_[tail];
    tail_.store((tail + 1) % N, std::memory_order_release);
    return page;
  }

 private:
  std::array<Page*, N> slots_{};
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

/// The per-engine stream writer.  One instance per simulation engine
/// (never shared across threads); emit<N>() is the hot path: one
/// bounds check, one packed header store, N payload stores.
class BinaryStream {
 public:
  struct Options {
    std::uint32_t stream_id = 0;
    /// true: seal hands pages to a background drainer thread over the
    /// lock-free ring.  false: seal calls the sink inline and reuses
    /// one page buffer (sweep workers; allocation-free steady state).
    bool background = false;
  };

  explicit BinaryStream(PageSink& sink) : BinaryStream(sink, Options()) {}
  BinaryStream(PageSink& sink, Options options);
  ~BinaryStream();

  BinaryStream(const BinaryStream&) = delete;
  BinaryStream& operator=(const BinaryStream&) = delete;

  /// Emit one record: packed header plus `words` payload words.  `id`
  /// must fit 6 bits; `t` must not be before the previous record by
  /// more than the 57-bit zigzag budget (sim time is monotone per
  /// engine, so deltas are small and non-negative in practice).
  void emit(std::uint8_t id, TimePs t, const std::uint64_t* words, int count) {
    std::byte* p = cursor_;
    const std::size_t bytes = static_cast<std::size_t>(count + 1) * 8;
    if (p + bytes > page_end_) {
      roll();
      p = cursor_;
    }
    const std::uint64_t delta = zigzag_encode(t - last_time_);
    QUARTZ_CHECK(delta < (1ull << 58), "record time delta overflows the header word");
    auto* w = reinterpret_cast<std::uint64_t*>(p);
    w[0] = (delta << 6) | id;
    for (int i = 0; i < count; ++i) w[i + 1] = words[i];
    cursor_ = p + bytes;
    last_time_ = t;
    ++records_;
  }

  void emit0(std::uint8_t id, TimePs t) { emit(id, t, nullptr, 0); }
  void emit1(std::uint8_t id, TimePs t, std::uint64_t w0) { emit(id, t, &w0, 1); }
  void emit2(std::uint8_t id, TimePs t, std::uint64_t w0, std::uint64_t w1) {
    const std::uint64_t w[2] = {w0, w1};
    emit(id, t, w, 2);
  }
  void emit3(std::uint8_t id, TimePs t, std::uint64_t w0, std::uint64_t w1, std::uint64_t w2) {
    const std::uint64_t w[3] = {w0, w1, w2};
    emit(id, t, w, 3);
  }
  void emit4(std::uint8_t id, TimePs t, std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
             std::uint64_t w3) {
    const std::uint64_t w[4] = {w0, w1, w2, w3};
    emit(id, t, w, 4);
  }

  /// Seal the current partial page and drain everything to the sink
  /// (joins the drainer in background mode).  Idempotent; the
  /// destructor calls it.
  void finish();

  std::uint64_t records() const { return records_; }
  std::uint64_t pages_sealed() const { return pages_sealed_; }
  /// Pages allocated because the drainer fell behind (background mode).
  std::uint64_t emergency_pages() const { return emergency_pages_; }
  std::uint32_t stream_id() const { return options_.stream_id; }

 private:
  static constexpr std::size_t kRingSlots = 9;  ///< 8 pages in flight
  static constexpr int kPoolPages = 8;

  void roll();              ///< seal current page, start a fresh one
  void seal();              ///< finalize header + hand off / flush
  Page* acquire_page();     ///< from the free ring, else allocate
  void start_page(Page* page);
  void drain_loop();        ///< background thread body

  PageSink* sink_;
  Options options_;

  Page* current_ = nullptr;
  std::byte* cursor_ = nullptr;
  std::byte* page_end_ = nullptr;
  TimePs last_time_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t next_page_seq_ = 0;
  std::uint64_t pages_sealed_ = 0;
  std::uint64_t emergency_pages_ = 0;
  bool finished_ = false;

  // Background mode only.  work_gen_ is a monotone work counter the
  // drainer sleeps on (atomic wait/notify); the rings carry the pages.
  std::vector<std::unique_ptr<Page>> pool_;
  SpscRing<kRingSlots> sealed_;
  SpscRing<kRingSlots> free_;
  std::atomic<std::uint64_t> work_gen_{0};
  std::atomic<bool> stop_{false};
  std::thread drainer_;
};

}  // namespace quartz::telemetry
