// Branchless / SIMD filter kernels over the TokenStore SoA lanes.
//
// The §5 hot loop spends most of its time answering three questions about a
// stage's token pool: "which slots hold a ready token of this (place, kind)?"
// (the per-place candidate scan), "is there a ready reservation here?"
// (trigger-input checks) and "how many instruction tokens sit in this place?"
// (capacity math). All three reduce to filtering the two contiguous lanes the
// store already maintains — the packed uint32 key lane and the uint64 ready
// lane — without touching the Token objects.
//
// With -mavx2 (cmake RCPN_AVX2, host-detected by default) each kernel
// compares keys in blocks of 8 with one _mm256_cmpeq_epi32 and walks the set
// bits of the movemask with std::countr_zero; the 64-bit ready lane is
// checked per match, after the key filter has discarded the bulk of the
// pool. Without it the kernels are the plain reference loops: a bitmask
// filter built from scalar compares was measured ~2x *slower* than what the
// compiler makes of the simple loop at pipeline-realistic pool sizes
// (8-64 slots), so the block path is strictly SIMD.
//
// The block path also only engages at kSimdMinSlots — below that the wide
// load + movemask costs more than it filters (a find over a handful of
// slots whose first match sits early is a couple of predictable branches),
// and the in-order ARM stages live entirely in that regime. Wide pools
// (reservation-station-style stores) are where the 8-wide filter pays.
//
// The AVX2 path visits matches in ascending slot order, so results are
// byte-identical to the scalar reference loops (the four-way differential
// harness pins this). The build option -DRCPN_AVX2=OFF is the off-switch:
// it compiles the reference loops alone.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/token.hpp"

namespace rcpn::core::soa {

/// Pool size below which the scalar loop beats the 8-wide filter (measured:
/// wide-load+movemask overhead vs a few predictable compare branches).
inline constexpr std::size_t kSimdMinSlots = 16;

#if defined(__AVX2__)
namespace detail {

/// Bitmask of key matches among keys[i..i+8) — bit b set iff keys[i+b]==want.
inline std::uint32_t key_mask8(const std::uint32_t* keys, std::uint32_t want) {
  const __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  const __m256i eq = _mm256_cmpeq_epi32(k, _mm256_set1_epi32(static_cast<int>(want)));
  return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
}

}  // namespace detail
#endif

/// Number of slots whose key equals `want` (Engine::tokens_in_place).
inline unsigned count_matches(const std::uint32_t* keys, std::size_t n,
                              std::uint32_t want) {
#if defined(__AVX2__)
  if (n >= kSimdMinSlots) {
    const std::size_t blocks = n - n % 8;
    unsigned count = 0;
    std::size_t i = 0;
    for (; i < blocks; i += 8)
      count += static_cast<unsigned>(std::popcount(detail::key_mask8(keys + i, want)));
    for (; i < n; ++i) count += static_cast<unsigned>(keys[i] == want);
    return count;
  }
#endif
  unsigned count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == want) ++count;
  return count;
}

/// First slot (age order) whose key equals `want` and whose ready cycle is
/// <= `now`; `n` if none (Engine::find_ready_reservation).
inline std::size_t find_match_ready(const std::uint32_t* keys, const Cycle* ready,
                                    std::size_t n, std::uint32_t want, Cycle now) {
#if defined(__AVX2__)
  if (n >= kSimdMinSlots) {
    const std::size_t blocks = n - n % 8;
    std::size_t i = 0;
    for (; i < blocks; i += 8) {
      std::uint32_t m = detail::key_mask8(keys + i, want);
      while (m != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        if (ready[i + b] <= now) return i + b;
        m &= m - 1;
      }
    }
    for (; i < n; ++i)
      if (keys[i] == want && ready[i] <= now) return i;
    return n;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == want && ready[i] <= now) return i;
  return n;
}

/// Call fn(slot) for every slot (ascending) whose key equals `want` and whose
/// ready cycle is <= `now` — the per-place candidate scan of the compiled and
/// generated backends.
template <class Fn>
inline void for_each_match_ready(const std::uint32_t* keys, const Cycle* ready,
                                 std::size_t n, std::uint32_t want, Cycle now,
                                 Fn&& fn) {
#if defined(__AVX2__)
  if (n >= kSimdMinSlots) {
    const std::size_t blocks = n - n % 8;
    std::size_t i = 0;
    for (; i < blocks; i += 8) {
      std::uint32_t m = detail::key_mask8(keys + i, want);
      while (m != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        if (ready[i + b] <= now) fn(i + b);
        m &= m - 1;
      }
    }
    for (; i < n; ++i)
      if (keys[i] == want && ready[i] <= now) fn(i);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == want && ready[i] <= now) fn(i);
}

}  // namespace rcpn::core::soa
