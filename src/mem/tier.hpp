// Memory tier descriptors for the tiered-memory hardware model.
//
// A tier is a pool of physical 4 KB frames with an unloaded access latency
// and a peak bandwidth. Frame numbers are globally unique across tiers:
// PFN = tier * kTierStride + index, so a PFN alone identifies its tier
// (mirroring how a physical address identifies its NUMA node).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/clock.hpp"

namespace vulcan::mem {

/// Tier index. 0 is always the fastest tier.
using TierId = std::uint8_t;

inline constexpr TierId kFastTier = 0;
inline constexpr TierId kSlowTier = 1;

/// Most tiers one topology may have; per-tier scratch in the epoch loop is
/// sized from it.
inline constexpr std::size_t kMaxTiers = 8;

/// Physical frame number, globally unique across tiers.
using Pfn = std::uint64_t;

/// Frames per tier in the global PFN space (2^36 frames = 256 TB per tier,
/// far above anything simulated; keeps PFNs within the x86-64 52-bit
/// physical address limit after the 12-bit page shift).
inline constexpr Pfn kTierStride = Pfn{1} << 36;

constexpr TierId tier_of(Pfn pfn) {
  return static_cast<TierId>(pfn / kTierStride);
}
constexpr std::uint64_t index_of(Pfn pfn) { return pfn % kTierStride; }
constexpr Pfn make_pfn(TierId tier, std::uint64_t index) {
  return static_cast<Pfn>(tier) * kTierStride + index;
}

/// Static description of one memory tier.
struct TierConfig {
  std::string name;
  std::uint64_t capacity_pages = 0;
  sim::Nanos unloaded_latency_ns = 0;
  double peak_bandwidth_gbps = 0.0;
};

}  // namespace vulcan::mem
