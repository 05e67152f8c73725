#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace quartz {
namespace {

// Slicing-by-8 tables: tables[0] is the classic byte-wise table, and
// tables[k] advances a byte through k more zero bytes, so the table
// kernel folds eight bytes per step instead of one.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Crc32Tables kTables = make_tables();

// Advances the raw (pre-inverted) CRC state `c` over `bytes` bytes.
std::uint32_t table_update(std::uint32_t c, const unsigned char* p, std::size_t bytes) {
  const auto& t = kTables;
  if constexpr (std::endian::native == std::endian::little) {
    while (bytes >= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      bytes -= 8;
    }
  }
  for (std::size_t i = 0; i < bytes; ++i) c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

// Carry-less-multiply folding for the reflected CRC-32 (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
// Intel, 2009): four 128-bit lanes fold 64 bytes per step, fold into
// one lane, then 128 -> 64 bits and a Barrett reduction to 32.  The
// constants are the paper's bit-reflected x^n mod P values, shifted
// left by one:
//   k1 = x^(4*128+32), k2 = x^(4*128-32)   (64-byte fold)
//   k3 = x^(128+32),   k4 = x^(128-32)     (16-byte fold)
//   k5 = x^64                              (128 -> 64 bits)
//   P' = the polynomial, mu = floor(x^64 / P)   (Barrett)
#define QUARTZ_CLMUL __attribute__((target("pclmul,sse4.1")))

QUARTZ_CLMUL __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// x.lo * k.lo ^ x.hi * k.hi ^ next: carries lane `x` 128 bits forward
// (k = k3k4) or 512 bits forward (k = k1k2) and adds the next data.
QUARTZ_CLMUL __m128i fold16(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the raw CRC state `c` over `bytes` bytes, a multiple of 16
// and at least 64.
QUARTZ_CLMUL std::uint32_t fold_update(std::uint32_t c, const unsigned char* p,
                                       std::size_t bytes) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  bytes -= 64;

  while (bytes >= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
    p += 64;
    bytes -= 64;
  }

  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  while (bytes >= 16) {
    x1 = fold16(x1, k3k4, load16(p));
    p += 16;
    bytes -= 16;
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef QUARTZ_CLMUL

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_table(const void* data, std::size_t bytes, std::uint32_t seed) {
  return ~table_update(~seed, static_cast<const unsigned char*>(data), bytes);
}

bool crc32_folded_supported() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_folded(const void* data, std::size_t bytes, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if defined(__x86_64__)
  if (bytes >= 64) {
    const std::size_t bulk = bytes & ~std::size_t{15};
    c = fold_update(c, p, bulk);
    p += bulk;
    bytes -= bulk;
  }
#endif
  return ~table_update(c, p, bytes);
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  static const bool folded = detail::crc32_folded_supported();
  return folded ? detail::crc32_folded(data, bytes, seed)
                : detail::crc32_table(data, bytes, seed);
}

}  // namespace quartz
