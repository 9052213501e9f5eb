#include "vm/address_space.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace vulcan::vm {
namespace {

mem::Topology small_topology() {
  std::vector<mem::TierConfig> tiers{
      {"fast", 2048, 70, 205.0},
      {"slow", 8192, 162, 25.0},
  };
  return mem::Topology(std::move(tiers));
}

AddressSpace::Config small_config(std::uint64_t rss_pages, bool thp = false) {
  AddressSpace::Config cfg;
  cfg.pid = 1;
  cfg.rss_pages = rss_pages;
  cfg.thp = thp;
  return cfg;
}

TEST(AddressSpace, FaultMapsPageInPreferredTier) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  const Vpn vpn = as.vpn_at(5);
  EXPECT_FALSE(as.mapped(vpn));
  const Pte pte = as.fault(vpn, t, false, mem::kFastTier);
  EXPECT_TRUE(pte.present());
  EXPECT_EQ(mem::tier_of(pte.pfn()), mem::kFastTier);
  EXPECT_TRUE(as.mapped(vpn));
  EXPECT_EQ(as.pages_in_tier(mem::kFastTier), 1u);
  EXPECT_EQ(as.faulted_pages(), 1u);
}

TEST(AddressSpace, RefaultIsIdempotent) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  const Vpn vpn = as.vpn_at(0);
  const Pte first = as.fault(vpn, t, false, mem::kFastTier);
  const Pte second = as.fault(vpn, t, false, mem::kSlowTier);
  EXPECT_EQ(first.pfn(), second.pfn());
  EXPECT_EQ(as.faulted_pages(), 1u);
}

TEST(AddressSpace, FallsBackToSlowTierWhenFastFull) {
  auto topo = small_topology();
  AddressSpace as(small_config(4096), topo);
  const ThreadId t = as.add_thread();
  for (std::uint64_t i = 0; i < 4096; ++i) {
    as.fault(as.vpn_at(i), t, false, mem::kFastTier);
  }
  EXPECT_EQ(as.pages_in_tier(mem::kFastTier), 2048u);
  EXPECT_EQ(as.pages_in_tier(mem::kSlowTier), 2048u);
}

TEST(AddressSpace, WriteFaultSetsDirty) {
  auto topo = small_topology();
  AddressSpace as(small_config(10), topo);
  const ThreadId t = as.add_thread();
  EXPECT_TRUE(as.fault(as.vpn_at(0), t, true, mem::kFastTier).dirty());
  EXPECT_FALSE(as.fault(as.vpn_at(1), t, false, mem::kFastTier).dirty());
}

TEST(AddressSpace, RemapSwapsFrameAndUpdatesCounts) {
  auto topo = small_topology();
  AddressSpace as(small_config(10), topo);
  const ThreadId t = as.add_thread();
  const Vpn vpn = as.vpn_at(3);
  const Pte pte = as.fault(vpn, t, true, mem::kSlowTier);
  const mem::Pfn target = *topo.allocator(mem::kFastTier).allocate();
  const mem::Pfn old = as.remap(vpn, target);
  EXPECT_EQ(old, pte.pfn());
  EXPECT_EQ(as.tables().get(vpn).pfn(), target);
  EXPECT_FALSE(as.tables().get(vpn).dirty()) << "remap clears dirty";
  EXPECT_EQ(as.pages_in_tier(mem::kFastTier), 1u);
  EXPECT_EQ(as.pages_in_tier(mem::kSlowTier), 0u);
  topo.allocator(mem::kSlowTier).free(old);
}

TEST(AddressSpace, DestructorReturnsFrames) {
  auto topo = small_topology();
  {
    AddressSpace as(small_config(100), topo);
    const ThreadId t = as.add_thread();
    for (std::uint64_t i = 0; i < 100; ++i) {
      as.fault(as.vpn_at(i), t, false, mem::kFastTier);
    }
    EXPECT_EQ(topo.allocator(mem::kFastTier).used(), 100u);
  }
  EXPECT_EQ(topo.allocator(mem::kFastTier).used(), 0u);
}

TEST(AddressSpace, ThpFaultsWholeChunk) {
  auto topo = small_topology();
  AddressSpace as(small_config(1024, /*thp=*/true), topo);
  const ThreadId t = as.add_thread();
  as.fault(as.vpn_at(5), t, false, mem::kFastTier);
  EXPECT_EQ(as.faulted_pages(), 512u) << "whole 2MB chunk populated";
  EXPECT_EQ(as.chunk_state(as.vpn_at(5)), AddressSpace::ChunkState::kHuge);
  EXPECT_TRUE(as.mapped(as.vpn_at(511)));
  EXPECT_FALSE(as.mapped(as.vpn_at(512)));
}

TEST(AddressSpace, ThpTailSmallerThanChunkUsesBasePages) {
  auto topo = small_topology();
  AddressSpace as(small_config(600, /*thp=*/true), topo);
  const ThreadId t = as.add_thread();
  as.fault(as.vpn_at(550), t, false, mem::kFastTier);  // tail chunk (88 pages)
  EXPECT_EQ(as.faulted_pages(), 1u);
  EXPECT_EQ(as.chunk_state(as.vpn_at(550)),
            AddressSpace::ChunkState::kBasePages);
}

TEST(AddressSpace, SplitChunkTransitionsState) {
  auto topo = small_topology();
  AddressSpace as(small_config(512, /*thp=*/true), topo);
  const ThreadId t = as.add_thread();
  as.fault(as.vpn_at(0), t, false, mem::kFastTier);
  EXPECT_TRUE(as.is_huge(as.vpn_at(100)));
  EXPECT_TRUE(as.split_chunk(as.vpn_at(100)));
  EXPECT_FALSE(as.is_huge(as.vpn_at(100)));
  EXPECT_FALSE(as.split_chunk(as.vpn_at(100))) << "second split is a no-op";
  // Pages remain mapped after a split.
  EXPECT_TRUE(as.mapped(as.vpn_at(0)));
  EXPECT_TRUE(as.mapped(as.vpn_at(511)));
}

TEST(AddressSpace, ThpDisabledFaultsSinglePages) {
  auto topo = small_topology();
  AddressSpace as(small_config(1024, /*thp=*/false), topo);
  const ThreadId t = as.add_thread();
  as.fault(as.vpn_at(5), t, false, mem::kFastTier);
  EXPECT_EQ(as.faulted_pages(), 1u);
  EXPECT_EQ(as.chunk_state(as.vpn_at(5)),
            AddressSpace::ChunkState::kBasePages);
}

TEST(AddressSpace, DirtyAndAccessedClearing) {
  auto topo = small_topology();
  AddressSpace as(small_config(10), topo);
  const ThreadId t = as.add_thread();
  const Vpn vpn = as.vpn_at(0);
  as.fault(vpn, t, true, mem::kFastTier);
  EXPECT_TRUE(as.tables().get(vpn).dirty());
  as.clear_dirty(vpn);
  EXPECT_FALSE(as.tables().get(vpn).dirty());
  EXPECT_TRUE(as.tables().get(vpn).accessed());
  as.clear_accessed(vpn);
  EXPECT_FALSE(as.tables().get(vpn).accessed());
}

class AddressSpaceChurnP : public ::testing::TestWithParam<std::uint64_t> {};

// Property: tier page counts always equal the true census of mapped PTEs,
// and allocator usage matches the address space's footprint.
TEST_P(AddressSpaceChurnP, TierAccountingMatchesCensus) {
  sim::Rng rng(GetParam());
  auto topo = small_topology();
  AddressSpace as(small_config(512), topo);
  const ThreadId t = as.add_thread();
  for (int step = 0; step < 2000; ++step) {
    const Vpn vpn = as.vpn_at(rng.below(512));
    if (!as.mapped(vpn)) {
      as.fault(vpn, t, rng.chance(0.5),
               rng.chance(0.5) ? mem::kFastTier : mem::kSlowTier);
    } else if (rng.chance(0.3)) {
      const mem::TierId to = rng.chance(0.5) ? mem::kFastTier : mem::kSlowTier;
      if (auto frame = topo.allocator(to).allocate()) {
        const mem::Pfn old = as.remap(vpn, *frame);
        topo.allocator(mem::tier_of(old)).free(old);
      }
    }
  }
  std::uint64_t census_fast = 0, census_slow = 0;
  as.tables().process_table().visit([&](Vpn, Pte pte) {
    (mem::tier_of(pte.pfn()) == mem::kFastTier ? census_fast : census_slow)++;
  });
  EXPECT_EQ(as.pages_in_tier(mem::kFastTier), census_fast);
  EXPECT_EQ(as.pages_in_tier(mem::kSlowTier), census_slow);
  EXPECT_EQ(topo.allocator(mem::kFastTier).used(), census_fast);
  EXPECT_EQ(topo.allocator(mem::kSlowTier).used(), census_slow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpaceChurnP,
                         ::testing::Values(10, 20, 30));

}  // namespace
}  // namespace vulcan::vm
