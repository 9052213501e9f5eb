#include "vm/page_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/rng.hpp"

namespace vulcan::vm {
namespace {

TEST(PageTable, UnmappedReadsNonPresent) {
  PageTable pt;
  EXPECT_FALSE(pt.get(0).present());
  EXPECT_FALSE(pt.get(0x123456789).present());
}

TEST(PageTable, SetThenGet) {
  PageTable pt;
  const Vpn vpn = 0x5599'0000'0000ULL >> 12;
  pt.set(vpn, Pte::make(77, true, 2));
  const Pte p = pt.get(vpn);
  EXPECT_TRUE(p.present());
  EXPECT_EQ(p.pfn(), 77u);
}

TEST(PageTable, NeighbouringVpnsAreIndependent) {
  PageTable pt;
  pt.set(1000, Pte::make(1, true, 0));
  EXPECT_FALSE(pt.get(999).present());
  EXPECT_FALSE(pt.get(1001).present());
}

TEST(PageTable, IndexHelpersDecompose) {
  // vpn bits: [35:27] pgd, [26:18] pud, [17:9] pmd, [8:0] pte.
  const Vpn vpn = (Vpn{5} << 27) | (Vpn{6} << 18) | (Vpn{7} << 9) | 8;
  EXPECT_EQ(PageTable::pgd_index(vpn), 5u);
  EXPECT_EQ(PageTable::pud_index(vpn), 6u);
  EXPECT_EQ(PageTable::pmd_index(vpn), 7u);
  EXPECT_EQ(PageTable::pte_index(vpn), 8u);
}

TEST(PageTable, UpperNodeCountGrowsWithSpread) {
  PageTable pt;
  EXPECT_EQ(pt.upper_node_count(), 1u);  // just the PGD
  pt.set(0, Pte::make(1, true, 0));
  EXPECT_EQ(pt.upper_node_count(), 3u);  // PGD + PUD + PMD
  pt.set(1, Pte::make(2, true, 0));      // same leaf: no new uppers
  EXPECT_EQ(pt.upper_node_count(), 3u);
  pt.set(Vpn{1} << 27, Pte::make(3, true, 0));  // new PGD slot
  EXPECT_EQ(pt.upper_node_count(), 5u);
}

TEST(PageTable, LeafAndMappingCounts) {
  PageTable pt;
  for (Vpn v = 0; v < 600; ++v) pt.set(v, Pte::make(v, true, 0));
  EXPECT_EQ(pt.leaf_count(), 2u);  // 512 + 88 entries
  EXPECT_EQ(pt.mapping_count(), 600u);
}

TEST(PageTable, UnmapViaNonPresentPte) {
  PageTable pt;
  pt.set(5, Pte::make(9, true, 0));
  pt.set(5, Pte{});
  EXPECT_FALSE(pt.get(5).present());
  EXPECT_EQ(pt.mapping_count(), 0u);
  EXPECT_EQ(pt.leaf_count(), 1u);  // leaf survives, now empty
}

TEST(PageTable, SharedLeafVisibleThroughBothTrees) {
  PageTable a, b;
  a.set(100, Pte::make(1, true, 0));
  b.attach_leaf(100, a.leaf_ref(100));
  EXPECT_TRUE(b.get(100).present());
  // Writes through either tree are visible through both.
  b.set(101, Pte::make(2, true, 0));
  EXPECT_EQ(a.get(101).pfn(), 2u);
  a.set(101, Pte::make(3, true, 0));
  EXPECT_EQ(b.get(101).pfn(), 3u);
}

TEST(PageTable, DetachLeafHidesMappingsInOneTreeOnly) {
  PageTable a, b;
  a.set(100, Pte::make(1, true, 0));
  b.attach_leaf(100, a.leaf_ref(100));
  b.detach_leaf(100);
  EXPECT_FALSE(b.get(100).present());
  EXPECT_TRUE(a.get(100).present());
}

TEST(PageTable, ForEachVisitsExactlyPresentMappings) {
  PageTable pt;
  std::map<Vpn, mem::Pfn> expected;
  sim::Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const Vpn vpn = rng.below(1ULL << 36);
    const mem::Pfn pfn = rng.below(1ULL << 30);
    pt.set(vpn, Pte::make(pfn, true, 0));
    expected[vpn] = pfn;
  }
  std::map<Vpn, mem::Pfn> seen;
  pt.visit([&](Vpn vpn, Pte pte) { seen[vpn] = pte.pfn(); });
  EXPECT_EQ(seen, expected);
}

class PageTableRandomP : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the table behaves exactly like a map<Vpn, Pte> under random
// set/unmap/get across the whole 36-bit vpn space.
TEST_P(PageTableRandomP, MatchesReferenceMap) {
  sim::Rng rng(GetParam());
  PageTable pt;
  std::map<Vpn, std::uint64_t> ref;
  std::vector<Vpn> known;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55 || known.empty()) {
      const Vpn vpn = rng.below(1ULL << 36);
      const Pte pte = Pte::make(rng.below(1ULL << 38), rng.chance(0.5),
                                static_cast<std::uint8_t>(rng.below(0x80)));
      pt.set(vpn, pte);
      ref[vpn] = pte.raw();
      known.push_back(vpn);
    } else if (roll < 0.75) {
      const Vpn vpn = known[rng.below(known.size())];
      pt.set(vpn, Pte{});
      ref.erase(vpn);
    } else {
      const Vpn vpn = known[rng.below(known.size())];
      const auto it = ref.find(vpn);
      if (it == ref.end()) {
        ASSERT_FALSE(pt.get(vpn).present());
      } else {
        ASSERT_EQ(pt.get(vpn).raw(), it->second);
      }
    }
  }
  std::uint64_t count = 0;
  pt.visit([&](Vpn vpn, Pte pte) {
    ++count;
    auto it = ref.find(vpn);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(pte.raw(), it->second);
  });
  EXPECT_EQ(count, ref.size());
  EXPECT_EQ(pt.mapping_count(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableRandomP,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace vulcan::vm
