// Shared virtual-memory identifier types.
#pragma once

#include <cstdint>

#include "sim/config.hpp"

namespace vulcan::vm {

/// Virtual address (48-bit canonical x86-64 user space).
using VirtAddr = std::uint64_t;
/// Virtual page number: VirtAddr >> 12.
using Vpn = std::uint64_t;

using ProcessId = std::uint32_t;
/// Thread index *within* a process; bounded by the 7-bit PTE field (< 127,
/// 0x7F is the shared sentinel).
using ThreadId = std::uint8_t;
/// Hardware core index.
using CoreId = std::uint16_t;

constexpr Vpn vpn_of(VirtAddr va) { return va >> 12; }

/// Huge-page chunk index of a base-page vpn (512 base pages per 2 MB chunk).
constexpr std::uint64_t huge_chunk_of(Vpn vpn) {
  return vpn / sim::kPagesPerHuge;
}

}  // namespace vulcan::vm
