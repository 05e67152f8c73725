#include "snapshot/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"

namespace quartz::snapshot {
namespace {

// File header: magic(8) version(4) reserved(4) sequence(8).
constexpr std::size_t kFileHeaderBytes = 24;
// Chunk header: id(4) crc(4) payload_bytes(8).
constexpr std::size_t kChunkHeaderBytes = 16;

std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::string fourcc_name(std::uint32_t id) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xFF);
    s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

void store_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

void store_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

/// Validate the chunk walk of a complete snapshot byte stream
/// (header already stripped).  Returns false with a reason on any
/// structural damage.
bool validate_chunks(const std::vector<std::byte>& data, std::size_t start,
                     std::string* reason) {
  std::size_t at = start;
  bool saw_end = false;
  while (at < data.size()) {
    if (data.size() - at < kChunkHeaderBytes) {
      *reason = "truncated chunk header";
      return false;
    }
    const std::uint32_t id = load_u32(data.data() + at);
    const std::uint32_t crc = load_u32(data.data() + at + 4);
    const std::uint64_t payload = load_u64(data.data() + at + 8);
    at += kChunkHeaderBytes;
    if (payload > data.size() - at) {
      *reason = "chunk '" + fourcc_name(id) + "' overruns file";
      return false;
    }
    if (crc32(data.data() + at, payload) != crc) {
      *reason = "chunk '" + fourcc_name(id) + "' CRC mismatch";
      return false;
    }
    at = align8(at + payload);
    if (id == kEndChunk) {
      saw_end = true;
      break;
    }
  }
  if (!saw_end) {
    *reason = "missing end chunk (torn write)";
    return false;
  }
  if (at != data.size() && at < data.size()) {
    // Trailing bytes after the end chunk: tolerate (a future writer may
    // append), the validated prefix is complete.
  }
  return true;
}

}  // namespace

// --- Writer -----------------------------------------------------------------

void Writer::begin_chunk(std::uint32_t id) {
  QUARTZ_CHECK(chunk_start_ < 0, "previous chunk still open");
  chunk_start_ = static_cast<std::ptrdiff_t>(buffer_.size());
  std::byte header[kChunkHeaderBytes] = {};
  store_u32(header, id);
  buffer_.insert(buffer_.end(), header, header + kChunkHeaderBytes);
}

void Writer::end_chunk() {
  QUARTZ_CHECK(chunk_start_ >= 0, "no open chunk");
  const auto payload_at = static_cast<std::size_t>(chunk_start_) + kChunkHeaderBytes;
  const std::size_t payload = buffer_.size() - payload_at;
  const std::uint32_t crc = crc32(buffer_.data() + payload_at, payload);
  store_u32(buffer_.data() + chunk_start_ + 4, crc);
  store_u64(buffer_.data() + chunk_start_ + 8, payload);
  buffer_.resize(align8(buffer_.size()), std::byte{0});
  chunk_start_ = -1;
}

void Writer::append(const void* data, std::size_t bytes) {
  QUARTZ_CHECK(chunk_start_ >= 0, "write outside a chunk");
  const auto* p = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), p, p + bytes);
}

void Writer::put_u32(std::uint32_t v) {
  std::byte b[4];
  store_u32(b, v);
  append(b, 4);
}

void Writer::put_u64(std::uint64_t v) {
  std::byte b[8];
  store_u64(b, v);
  append(b, 8);
}

void Writer::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void Writer::put_string(const std::string& s) {
  put_u64(s.size());
  append(s.data(), s.size());
}

void Writer::put_bytes(const void* data, std::size_t bytes) {
  put_u64(bytes);
  append(data, bytes);
}

void Writer::put_rng(const Rng& rng) {
  const RngState s = rng.state();
  for (const std::uint64_t word : s.word) put_u64(word);
}

void Writer::put_f64_vec(const std::vector<double>& v) {
  put_u64(v.size());
  for (const double x : v) put_f64(x);
}

// --- Reader -----------------------------------------------------------------

std::optional<Reader> Reader::from_bytes(std::vector<std::byte> data,
                                         std::string* error) {
  std::string reason;
  if (data.size() < kFileHeaderBytes) {
    reason = "file shorter than header";
  } else if (std::memcmp(data.data(), kFileMagic.data(), kFileMagic.size()) != 0) {
    reason = "bad magic";
  } else if (load_u32(data.data() + 8) != kFormatVersion) {
    reason = "unsupported version " + std::to_string(load_u32(data.data() + 8));
  } else if (!validate_chunks(data, kFileHeaderBytes, &reason)) {
    // reason set by validate_chunks
  } else {
    Reader r;
    r.sequence_ = load_u64(data.data() + 16);
    r.data_ = std::move(data);
    r.cursor_ = kFileHeaderBytes;
    return r;
  }
  if (error != nullptr) *error = reason;
  return std::nullopt;
}

std::optional<Reader> Reader::from_file(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open";
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> data(size);
  if (size > 0) in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size));
  if (!in) {
    if (error != nullptr) *error = "short read";
    return std::nullopt;
  }
  return from_bytes(std::move(data), error);
}

void Reader::open_chunk(std::uint32_t id) {
  QUARTZ_CHECK(!in_chunk_, "previous chunk still open");
  QUARTZ_REQUIRE(data_.size() - cursor_ >= kChunkHeaderBytes, "no next chunk");
  const std::uint32_t found = load_u32(data_.data() + cursor_);
  QUARTZ_REQUIRE(found == id, "expected chunk '" + fourcc_name(id) +
                                  "', found '" + fourcc_name(found) + "'");
  const std::uint64_t payload = load_u64(data_.data() + cursor_ + 8);
  cursor_ += kChunkHeaderBytes;
  chunk_end_ = cursor_ + payload;
  in_chunk_ = true;
}

void Reader::close_chunk() {
  QUARTZ_CHECK(in_chunk_, "no open chunk");
  QUARTZ_REQUIRE(cursor_ == chunk_end_,
                 "chunk payload not fully consumed (format drift?)");
  cursor_ = align8(cursor_);
  in_chunk_ = false;
}

const std::byte* Reader::take(std::size_t bytes) {
  QUARTZ_CHECK(in_chunk_, "read outside a chunk");
  QUARTZ_REQUIRE(chunk_end_ - cursor_ >= bytes, "read past chunk end");
  const std::byte* p = data_.data() + cursor_;
  cursor_ += bytes;
  return p;
}

std::uint8_t Reader::get_u8() {
  return std::to_integer<std::uint8_t>(*take(1));
}

std::uint32_t Reader::get_u32() { return load_u32(take(4)); }

std::uint64_t Reader::get_u64() { return load_u64(take(8)); }

double Reader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::get_string() {
  const std::uint64_t n = get_u64();
  const std::byte* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::uint64_t Reader::get_count(std::size_t item_bytes) {
  const std::uint64_t n = get_u64();
  QUARTZ_REQUIRE(n <= (chunk_end_ - cursor_) / std::max<std::size_t>(item_bytes, 1),
                 "element count overruns its chunk");
  return n;
}

void Reader::get_rng(Rng& rng) {
  RngState s;
  for (auto& word : s.word) word = get_u64();
  rng.set_state(s);
}

std::vector<double> Reader::get_f64_vec() {
  const std::uint64_t n = get_count(sizeof(double));
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_f64());
  return v;
}

// --- checkpoint files -------------------------------------------------------

std::string checkpoint_path(const std::string& dir, std::uint64_t sequence) {
  std::ostringstream os;
  os << dir << "/ckpt-";
  os.width(8);
  os.fill('0');
  os << sequence << ".qsnap";
  return os.str();
}

std::vector<std::byte> file_bytes(const Writer& writer, std::uint64_t sequence) {
  const auto& body = writer.buffer();
  std::vector<std::byte> out(kFileHeaderBytes + body.size() + kChunkHeaderBytes, std::byte{0});
  std::byte* at = out.data();
  std::memcpy(at, kFileMagic.data(), kFileMagic.size());
  store_u32(at + 8, kFormatVersion);
  store_u64(at + 16, sequence);
  at += kFileHeaderBytes;
  if (!body.empty()) std::memcpy(at, body.data(), body.size());
  at += body.size();
  // Terminating end chunk (empty payload): the marker validation
  // demands — a file cut short anywhere before this point is rejected
  // as torn.
  store_u32(at, kEndChunk);
  store_u32(at + 4, crc32(at, 0));
  return out;
}

void write_file_atomic(const std::string& path, const Writer& writer,
                       std::uint64_t sequence) {
  const std::vector<std::byte> bytes = file_bytes(writer, sequence);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  QUARTZ_REQUIRE(fd >= 0, "cannot create " + tmp + ": " + std::strerror(errno));
  auto write_all = [fd, &tmp](const void* data, std::size_t bytes_left) {
    const auto* p = static_cast<const char*>(data);
    while (bytes_left > 0) {
      const ssize_t n = ::write(fd, p, bytes_left);
      if (n < 0) {
        const int err = errno;
        ::close(fd);
        QUARTZ_REQUIRE(false, "write to " + tmp + " failed: " + std::strerror(err));
      }
      p += n;
      bytes_left -= static_cast<std::size_t>(n);
    }
  };
  write_all(bytes.data(), bytes.size());
  QUARTZ_REQUIRE(::fsync(fd) == 0, "fsync " + tmp + " failed");
  ::close(fd);
  QUARTZ_REQUIRE(::rename(tmp.c_str(), path.c_str()) == 0,
                 "rename to " + path + " failed: " + std::strerror(errno));
  // fsync the directory so the rename itself is durable.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<CheckpointFile> list_checkpoints(const std::string& dir) {
  std::vector<CheckpointFile> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != std::strlen("ckpt-00000000.qsnap")) continue;
    if (name.rfind("ckpt-", 0) != 0 || name.find(".qsnap") != 13) continue;
    const std::string digits = name.substr(5, 8);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    files.push_back({entry.path().string(), std::stoull(digits)});
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.sequence < b.sequence;
            });
  return files;
}

std::optional<Reader> load_latest_intact(const std::string& dir,
                                         std::string* warnings) {
  auto files = list_checkpoints(dir);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::string reason;
    auto reader = Reader::from_file(it->path, &reason);
    if (reader.has_value()) return reader;
    if (warnings != nullptr) {
      *warnings += "snapshot " + it->path + " rejected: " + reason + "\n";
    }
  }
  return std::nullopt;
}

}  // namespace quartz::snapshot
