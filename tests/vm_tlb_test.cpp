#include "vm/tlb.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/scope.hpp"
#include "sim/rng.hpp"

namespace vulcan::vm {
namespace {

/// A TLB reporting into a registry under vm.tlb.*, as the runtime wires it.
struct CountedTlb {
  explicit CountedTlb(Tlb::Config config = {}) : tlb(config) {
    tlb.set_obs(obs::Scope(&registry, nullptr, nullptr, "vm.tlb"));
  }
  std::uint64_t count(const std::string& name) const {
    return registry.counter_value("vm.tlb." + name);
  }

  obs::Registry registry;  // outlives the counters the TLB points into
  Tlb tlb;
};

TEST(Tlb, MissThenHit) {
  CountedTlb counted;
  Tlb& tlb = counted.tlb;
  EXPECT_FALSE(tlb.lookup(1, 100));
  tlb.insert(1, 100);
  EXPECT_TRUE(tlb.lookup(1, 100));
  EXPECT_EQ(counted.count("hits"), 1u);
  EXPECT_EQ(counted.count("misses"), 1u);
}

TEST(Tlb, ProcessIdsAreDisjoint) {
  Tlb tlb;
  tlb.insert(1, 100);
  EXPECT_FALSE(tlb.lookup(2, 100));
  EXPECT_TRUE(tlb.lookup(1, 100));
}

TEST(Tlb, InvalidateRemovesEntry) {
  CountedTlb counted;
  Tlb& tlb = counted.tlb;
  tlb.insert(1, 100);
  tlb.invalidate(1, 100);
  EXPECT_FALSE(tlb.lookup(1, 100));
  EXPECT_EQ(counted.count("invalidations"), 1u);
}

TEST(Tlb, FlushAllRemovesEverything) {
  CountedTlb counted;
  Tlb& tlb = counted.tlb;
  for (Vpn v = 0; v < 100; ++v) tlb.insert(1, v);
  tlb.flush_all();
  for (Vpn v = 0; v < 100; ++v) EXPECT_FALSE(tlb.lookup(1, v));
  EXPECT_EQ(counted.count("full_flushes"), 1u);
}

TEST(Tlb, HugeEntryCoversWholeChunk) {
  Tlb tlb;
  const Vpn vpn = 512 * 7 + 3;  // inside chunk 7
  tlb.insert_huge(1, vpn);
  EXPECT_TRUE(tlb.lookup(1, 512 * 7));        // first page of chunk
  EXPECT_TRUE(tlb.lookup(1, 512 * 7 + 511));  // last page of chunk
  EXPECT_FALSE(tlb.lookup(1, 512 * 8));       // next chunk
}

TEST(Tlb, InvalidateDropsCoveringHugeEntry) {
  Tlb tlb;
  tlb.insert_huge(1, 512 * 7);
  tlb.invalidate(1, 512 * 7 + 9);
  EXPECT_FALSE(tlb.lookup(1, 512 * 7 + 10))
      << "stale huge mapping must not survive a base-page invalidation";
}

TEST(Tlb, CapacityBoundedEviction) {
  Tlb::Config cfg;
  cfg.base_entries = 64;
  cfg.ways = 4;
  Tlb tlb(cfg);
  for (Vpn v = 0; v < 10'000; ++v) tlb.insert(1, v);
  // Far more insertions than capacity: most old entries must be gone.
  unsigned resident = 0;
  for (Vpn v = 0; v < 10'000; ++v) resident += tlb.lookup(1, v);
  EXPECT_LE(resident, 64u);
}

TEST(Tlb, LruKeepsHotEntryUnderConflict) {
  Tlb::Config cfg;
  cfg.base_entries = 16;
  cfg.ways = 4;
  Tlb tlb(cfg);
  tlb.insert(1, 0);
  // Touch vpn 0 repeatedly while streaming conflicting entries through.
  for (Vpn v = 1; v < 200; ++v) {
    tlb.lookup(1, 0);  // refresh LRU
    tlb.insert(1, v);
  }
  EXPECT_TRUE(tlb.lookup(1, 0)) << "recently used entry evicted";
}

class TlbChurnP : public ::testing::TestWithParam<std::uint64_t> {};

// Property: hits + misses == lookups; an insert is always observable until
// either invalidated, flushed, or evicted by >= associativity conflicts.
TEST_P(TlbChurnP, StatsAreConsistent) {
  sim::Rng rng(GetParam());
  CountedTlb counted;
  Tlb& tlb = counted.tlb;
  std::uint64_t lookups = 0;
  for (int i = 0; i < 20'000; ++i) {
    const Vpn vpn = rng.below(4096);
    const ProcessId pid = static_cast<ProcessId>(rng.below(3));
    switch (rng.below(4)) {
      case 0:
      case 1:
        tlb.lookup(pid, vpn);
        ++lookups;
        break;
      case 2:
        tlb.insert(pid, vpn);
        break;
      default:
        tlb.invalidate(pid, vpn);
        break;
    }
  }
  EXPECT_EQ(counted.count("hits") + counted.count("misses"), lookups);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbChurnP, ::testing::Values(3, 6, 9));

}  // namespace
}  // namespace vulcan::vm
