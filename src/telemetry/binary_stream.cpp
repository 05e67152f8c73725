#include "telemetry/binary_stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hpp"

namespace quartz::telemetry {

// --- StreamFile -------------------------------------------------------------

StreamFile::StreamFile(std::ostream& os) : os_(&os) {
  const StreamFileHeader header;
  os_->write(reinterpret_cast<const char*>(&header), sizeof(header));
}

StreamFile::StreamFile(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    ok_.store(false, std::memory_order_relaxed);
    return;
  }
  const StreamFileHeader header;
  write_raw(&header, sizeof(header));
}

StreamFile::~StreamFile() {
  if (fd_ >= 0) ::close(fd_);
}

void StreamFile::write_raw(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd_, p, bytes);
    if (n < 0) {
      ok_.store(false, std::memory_order_relaxed);
      return;
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
}

void StreamFile::accept(const Page& page) {
  static constexpr char kPad[8] = {};
  const std::size_t payload = page.header.payload_bytes;
  QUARTZ_CHECK(payload <= kPagePayloadBytes, "sealed page overflows the page size");
  const std::size_t padded = (payload + 7) & ~std::size_t{7};
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    write_raw(&page.header, sizeof(page.header));
    write_raw(page.payload, payload);
    if (padded != payload) write_raw(kPad, padded - payload);
  } else {
    os_->write(reinterpret_cast<const char*>(&page.header), sizeof(page.header));
    os_->write(reinterpret_cast<const char*>(page.payload), static_cast<std::streamsize>(payload));
    if (padded != payload) {
      os_->write(kPad, static_cast<std::streamsize>(padded - payload));
    }
  }
  pages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(sizeof(page.header) + padded, std::memory_order_relaxed);
}

void StreamFile::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (::fsync(fd_) != 0) ok_.store(false, std::memory_order_relaxed);
  } else if (os_ != nullptr) {
    os_->flush();
  }
}

void NullPageSink::accept(const Page& page) {
  pages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(sizeof(page.header) + page.header.payload_bytes, std::memory_order_relaxed);
}

// --- BinaryStream -----------------------------------------------------------

BinaryStream::BinaryStream(PageSink& sink, Options options)
    : sink_(&sink), options_(options) {
  const int pages = options_.background ? kPoolPages : 1;
  pool_.reserve(static_cast<std::size_t>(pages));
  for (int i = 0; i < pages; ++i) pool_.push_back(std::make_unique<Page>());
  current_ = pool_.front().get();
  for (int i = 1; i < pages; ++i) {
    const bool ok = free_.push(pool_[static_cast<std::size_t>(i)].get());
    QUARTZ_CHECK(ok, "free ring smaller than the page pool");
  }
  start_page(current_);
  if (options_.background) {
    drainer_ = std::thread([this] { drain_loop(); });
  }
}

BinaryStream::~BinaryStream() {
  try {
    finish();
  } catch (...) {
    // The destructor must not throw; callers that care about sink
    // errors call finish() explicitly.
  }
}

void BinaryStream::start_page(Page* page) {
  page->header = PageHeader{};
  page->header.stream_id = options_.stream_id;
  page->header.page_seq = next_page_seq_++;
  page->header.first_record_seq = records_;
  page->header.base_time_ps = last_time_;
  cursor_ = page->payload;
  page_end_ = page->payload + kPagePayloadBytes;
  current_ = page;
}

void BinaryStream::seal() {
  Page* page = current_;
  page->header.payload_bytes = static_cast<std::uint32_t>(cursor_ - page->payload);
  ++pages_sealed_;
  if (!options_.background) {
    page->header.crc = crc32(page->payload, page->header.payload_bytes);
    sink_->accept(*page);
    return;  // the single page buffer is reused by the next start_page
  }
  // Background mode: the CRC is the drainer's job — 64 KiB of checksum
  // on the engine thread would dwarf the record stores it protects.
  // Hand off to the drainer; the ring holds the whole pool, so a full
  // ring means the drainer owns every page and will free slots soon.
  while (!sealed_.push(page)) std::this_thread::yield();
  work_gen_.fetch_add(1, std::memory_order_release);
  work_gen_.notify_one();
  current_ = nullptr;
}

Page* BinaryStream::acquire_page() {
  if (Page* page = free_.pop()) return page;
  // The drainer fell behind; grow the pool rather than stall the
  // engine.  (Writer-thread only: the drainer never touches pool_.)
  ++emergency_pages_;
  pool_.push_back(std::make_unique<Page>());
  return pool_.back().get();
}

void BinaryStream::roll() {
  seal();
  start_page(options_.background ? acquire_page() : current_);
}

void BinaryStream::drain_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    if (Page* page = sealed_.pop()) {
      page->header.crc = crc32(page->payload, page->header.payload_bytes);
      sink_->accept(*page);
      // A failed push retires the page to the pool (emergency growth
      // made more pages than the ring holds).
      free_.push(page);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    work_gen_.wait(seen, std::memory_order_acquire);
    seen = work_gen_.load(std::memory_order_acquire);
  }
}

void BinaryStream::finish() {
  if (finished_) return;
  finished_ = true;
  if (current_ != nullptr && cursor_ != current_->payload) seal();
  if (options_.background) {
    stop_.store(true, std::memory_order_release);
    work_gen_.fetch_add(1, std::memory_order_release);
    work_gen_.notify_one();
    if (drainer_.joinable()) drainer_.join();
  }
  current_ = nullptr;
  cursor_ = page_end_ = nullptr;
}

}  // namespace quartz::telemetry
