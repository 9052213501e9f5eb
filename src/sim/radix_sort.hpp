// LSD radix sort of unsigned integer keys.
//
// The planners rank pages by packed integer keys (heat bits above a page
// or workload id), so their orders are plain integer orders. A
// comparison sort of such keys pays O(n log n) compares whose outcomes the
// branch predictor cannot learn; eight-bit digit passes pay O(n) and skip
// every digit the keys share (the high bytes of small page ids, the sign
// and exponent bytes of similar heats). Header-only: the profiler's
// coverage knee and the policy rankings both use it.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace vulcan::sim {

/// Sort the `n` keys at `keys` ascending. `Key` is an unsigned integer
/// type (including `unsigned __int128`); `tmp` has room for `n` keys and
/// is clobbered. Short ranges use std::sort, which is faster there.
template <typename Key>
void radix_sort(Key* keys, Key* tmp, std::size_t n) {
  constexpr std::size_t kDigits = sizeof(Key);
  if (n < 64) {
    std::sort(keys, keys + n);
    return;
  }
  std::array<std::array<std::uint32_t, 256>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    Key k = keys[i];
    for (std::size_t d = 0; d < kDigits; ++d, k >>= 8) {
      ++counts[d][static_cast<std::uint8_t>(k)];
    }
  }
  Key* from = keys;
  Key* to = tmp;
  for (std::size_t d = 0; d < kDigits; ++d) {
    auto& start = counts[d];
    const unsigned shift = 8 * static_cast<unsigned>(d);
    // A digit every key shares would move nothing.
    if (start[static_cast<std::uint8_t>(from[0] >> shift)] == n) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : start) {
      const std::uint32_t count = c;
      c = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Key k = from[i];
      to[start[static_cast<std::uint8_t>(k >> shift)]++] = k;
    }
    std::swap(from, to);
  }
  if (from != keys) std::copy(from, from + n, keys);
}

}  // namespace vulcan::sim
