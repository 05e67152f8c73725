// A fixed-size array whose pages are committed on first write.
//
// Per-line simulator state (busy-until times, bit counters, queueing
// biases, solver slots) is indexed by link or directed line, so a
// warehouse-scale fabric needs arrays of millions of entries even when
// only the lines a foreground island crosses are ever written.
// ZeroArray holds trivially-copyable T whose all-zero bytes are the
// value-initialised state, so nothing has to be filled at set-up: large
// arrays are anonymous mappings, whose pages the kernel commits on their
// first write (untouched pages read as zero), and small ones come from
// calloc.  Memory and set-up time then scale with the lines that carry
// traffic, while every access stays one indexed load.
//
// The size is fixed at construction: there is no resize or growth.
// Copies are a memcpy (and so commit every page they copy); moves take
// the storage along and leave the source empty.  Built with
// _GLIBCXX_ASSERTIONS, operator[] checks its index as
// std::vector::operator[] does and aborts on one out of range: ASan
// guards the calloc path but has no redzones around a mapping.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace quartz {

namespace detail {
/// `bytes` zero bytes (nullptr for 0); throws std::bad_alloc when the
/// system refuses.
void* zero_alloc(std::size_t bytes);
/// Release storage from zero_alloc(bytes).
void zero_free(void* storage, std::size_t bytes) noexcept;
}  // namespace detail

template <class T>
class ZeroArray {
  static_assert(std::is_trivially_copyable_v<T>, "ZeroArray stores raw bytes");

 public:
  ZeroArray() = default;
  explicit ZeroArray(std::size_t size) : size_(size) {
    if (size > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    data_ = static_cast<T*>(detail::zero_alloc(size * sizeof(T)));
  }
  ~ZeroArray() { detail::zero_free(data_, size_ * sizeof(T)); }

  ZeroArray(const ZeroArray& other) : ZeroArray(other.size_) {
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  ZeroArray(ZeroArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  /// Copy and move assignment both: `other` is already a copy or the
  /// moved-from storage, and the old storage leaves with it.
  ZeroArray& operator=(ZeroArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  T& operator[](std::size_t i) {
    check_index(i);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    check_index(i);
    return data_[i];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void check_index([[maybe_unused]] std::size_t i) const {
#if defined(_GLIBCXX_ASSERTIONS)
    if (i >= size_) {
      std::fprintf(stderr, "quartz::ZeroArray: index %zu out of range for size %zu\n", i,
                   size_);
      std::abort();
    }
#endif
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace quartz
