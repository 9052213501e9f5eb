#include "prof/heat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "sim/rng.hpp"

namespace vulcan::prof {
namespace {

TEST(HeatTracker, RecordAccumulates) {
  HeatTracker t(10);
  t.record(3, false);
  t.record(3, false, 2.0);
  EXPECT_DOUBLE_EQ(t.heat(3), 3.0);
  EXPECT_DOUBLE_EQ(t.heat(4), 0.0);
}

TEST(HeatTracker, DecayHalves) {
  HeatTracker t(4, 0.5);
  t.record(0, false, 8.0);
  t.decay_epoch();
  EXPECT_DOUBLE_EQ(t.heat(0), 4.0);
  t.decay_epoch();
  EXPECT_DOUBLE_EQ(t.heat(0), 2.0);
}

TEST(HeatTracker, RecencyBeatsStaleFrequency) {
  HeatTracker t(2, 0.5);
  t.record(0, false, 16.0);  // hot long ago
  for (int e = 0; e < 5; ++e) t.decay_epoch();
  t.record(1, false, 4.0);   // mildly hot now
  EXPECT_GT(t.heat(1), t.heat(0));
}

TEST(HeatTracker, WriteIntensityClassification) {
  HeatTracker t(3);
  for (int i = 0; i < 10; ++i) t.record(0, /*is_write=*/false);
  for (int i = 0; i < 10; ++i) t.record(1, /*is_write=*/true);
  for (int i = 0; i < 9; ++i) t.record(2, false);
  t.record(2, true);
  EXPECT_FALSE(t.write_intensive(0));
  EXPECT_TRUE(t.write_intensive(1));
  EXPECT_FALSE(t.write_intensive(2)) << "10% writes below 25% threshold";
  EXPECT_TRUE(t.write_intensive(2, 0.05)) << "custom threshold honoured";
}

TEST(HeatTracker, UntouchedPageIsNotWriteIntensive) {
  HeatTracker t(1);
  EXPECT_FALSE(t.write_intensive(0));
}

TEST(HeatTracker, HottestReturnsSortedTop) {
  HeatTracker t(5);
  t.record(0, false, 1.0);
  t.record(1, false, 5.0);
  t.record(2, false, 3.0);
  t.record(4, false, 4.0);
  const auto top = t.hottest(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 4u);
  EXPECT_EQ(top[2], 2u);
}

TEST(HeatTracker, HottestClampsToPageCount) {
  HeatTracker t(3);
  t.record(0, false);
  EXPECT_EQ(t.hottest(100).size(), 3u);
}

TEST(HeatTracker, HotThresholdSelectsQuotaPages) {
  HeatTracker t(100);
  for (std::uint64_t p = 0; p < 100; ++p) {
    t.record(p, false, static_cast<double>(p + 1));
  }
  const double thr = t.hot_threshold_for(10);
  EXPECT_EQ(t.count_at_least(thr), 10u);
}

TEST(HeatTracker, HotThresholdEdgeCases) {
  HeatTracker t(10);
  EXPECT_TRUE(std::isinf(t.hot_threshold_for(0)));
  // No warm pages at all: threshold 0, nothing counted.
  EXPECT_EQ(t.count_at_least(t.hot_threshold_for(5)), 0u);
  t.record(1, false, 2.0);
  t.record(2, false, 3.0);
  // Quota above warm population: every warm page is hot.
  EXPECT_EQ(t.count_at_least(t.hot_threshold_for(5)), 2u);
}

class HeatQuotaP : public ::testing::TestWithParam<std::uint64_t> {};

// Property: for random heats, the quota threshold admits at most `quota`
// pages when heats are distinct, and count is monotone in quota.
TEST_P(HeatQuotaP, QuotaThresholdProperty) {
  sim::Rng rng(GetParam());
  HeatTracker t(500);
  for (std::uint64_t p = 0; p < 500; ++p) {
    if (rng.chance(0.8)) t.record(p, false, rng.uniform() * 100 + 0.001);
  }
  std::uint64_t prev = 0;
  for (std::uint64_t quota : {1u, 10u, 50u, 200u, 600u}) {
    const auto n = t.count_at_least(t.hot_threshold_for(quota));
    EXPECT_GE(n, prev) << "hot count monotone in quota";
    // Floating-point ties are unlikely with random heats:
    EXPECT_LE(n, quota + 2);
    prev = n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeatQuotaP, ::testing::Values(1, 2, 3));

TEST(HeatTracker, CoveragePagesFindsTheKnee) {
  HeatTracker t(100);
  // 10 hot pages with 90% of the mass, 90 pages sharing the rest.
  for (std::uint64_t p = 0; p < 10; ++p) t.record(p, false, 90.0);
  for (std::uint64_t p = 10; p < 100; ++p) t.record(p, false, 100.0 / 90.0);
  EXPECT_EQ(t.coverage_pages(0.90), 10u);
  EXPECT_EQ(t.coverage_pages(0.0), 0u);
  EXPECT_EQ(t.coverage_pages(1.0), 100u);
}

TEST(HeatTracker, CoverageOfUniformHeatIsProportional) {
  HeatTracker t(200);
  for (std::uint64_t p = 0; p < 200; ++p) t.record(p, false, 1.0);
  EXPECT_EQ(t.coverage_pages(0.5), 100u);
  EXPECT_EQ(t.coverage_pages(0.25), 50u);
}

TEST(HeatTracker, CoverageEmptyTrackerIsZero) {
  HeatTracker t(10);
  EXPECT_EQ(t.coverage_pages(0.9), 0u);
}

class CoverageMonotoneP : public ::testing::TestWithParam<std::uint64_t> {};

// Property: coverage_pages is nondecreasing in the fraction, bounded by the
// warm population, and always covers at least the requested mass.
TEST_P(CoverageMonotoneP, MonotoneAndSufficient) {
  sim::Rng rng(GetParam());
  HeatTracker t(300);
  for (std::uint64_t p = 0; p < 300; ++p) {
    if (rng.chance(0.7)) t.record(p, false, rng.uniform() * 50 + 0.01);
  }
  std::uint64_t prev = 0;
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const auto k = t.coverage_pages(f);
    ASSERT_GE(k, prev);
    prev = k;
    // Verify sufficiency: the k hottest pages really cover fraction f.
    const auto top = t.hottest(k);
    double mass = 0;
    for (const auto page : top) mass += t.heat(page);
    ASSERT_GE(mass + 1e-5 * t.total_heat(), f * t.total_heat())
        << "fraction " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageMonotoneP,
                         ::testing::Values(1, 2, 3));

// The coverage knee must add heats in exactly the order a descending sort
// gives (double sums depend on the order of their terms). Pinned against
// that sort on tied, zero and denormal heats, below and above the size
// where the radix sort takes over from std::sort.
TEST(HeatTracker, CoverageMatchesADescendingSortReference) {
  const double palette[] = {1e-40, 3e-39, 1e-7, 0.25, 1.0, 1.0, 3.0, 1e6};
  sim::Rng rng(5);
  for (const std::uint64_t pages : {1u, 7u, 200u, 256u, 3000u}) {
    for (const double zero_share : {0.0, 0.5, 1.0}) {
      HeatTracker t(pages);
      for (std::uint64_t p = 0; p < pages; ++p) {
        if (rng.uniform() < zero_share) continue;
        // Flat, tied and skewed draws in one tracker.
        const double heat = p % 3 == 0 ? palette[rng.below(std::size(palette))]
                                       : rng.uniform() * 100.0;
        t.record(p, false, heat);
      }
      std::vector<float> heats;
      for (std::uint64_t p = 0; p < pages; ++p) {
        if (t.heat(p) > 0.0) heats.push_back(static_cast<float>(t.heat(p)));
      }
      std::sort(heats.begin(), heats.end(), std::greater<float>());
      const double total = t.total_heat();
      for (const double f : {0.0, 1e-9, 0.1, 0.5, 0.9, 0.999, 1.0, 2.0}) {
        std::uint64_t want = 0;
        if (total > 0.0) {
          const double target = std::clamp(f, 0.0, 1.0) * total * (1.0 - 1e-6);
          double covered = 0.0;
          while (want < heats.size() && covered < target) {
            covered += static_cast<double>(heats[want++]);
          }
        }
        ASSERT_EQ(t.coverage_pages(f), want)
            << pages << " pages, zero share " << zero_share << ", fraction "
            << f;
      }
    }
  }
}

TEST(HeatTracker, TotalHeatTracksMass) {
  HeatTracker t(4, 0.5);
  t.record(0, false, 2.0);
  t.record(1, true, 4.0);
  EXPECT_DOUBLE_EQ(t.total_heat(), 6.0);
  t.decay_epoch();
  EXPECT_DOUBLE_EQ(t.total_heat(), 3.0);
}

}  // namespace
}  // namespace vulcan::prof
