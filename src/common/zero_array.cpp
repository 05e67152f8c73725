#include "common/zero_array.hpp"

#include <sys/mman.h>

#include <cstdlib>

namespace quartz::detail {
namespace {

/// From this size on, storage is its own anonymous mapping; below it,
/// committing every page at once costs at most 256 pages.
constexpr std::size_t kMapBytes = std::size_t{1} << 20;

}  // namespace

void* zero_alloc(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kMapBytes) {
    void* storage = std::calloc(1, bytes);
    if (storage == nullptr) throw std::bad_alloc();
    return storage;
  }
  void* storage =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (storage == MAP_FAILED) throw std::bad_alloc();
  // Keep the commit granularity at one base page even where transparent
  // huge pages are on for every mapping: a sparse array would otherwise
  // commit 2 MiB per written line.
  madvise(storage, bytes, MADV_NOHUGEPAGE);
  return storage;
}

void zero_free(void* storage, std::size_t bytes) noexcept {
  if (storage == nullptr) return;
  if (bytes < kMapBytes) {
    std::free(storage);
  } else {
    munmap(storage, bytes);
  }
}

}  // namespace quartz::detail
