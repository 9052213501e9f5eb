#include "wl/pattern.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include <vector>

namespace vulcan::wl {
namespace {

TEST(UniformPattern, CoversRangeUniformly) {
  UniformPattern p(100, 0.0);
  sim::Rng rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto a = p.next(rng);
    ASSERT_LT(a.page, 100u);
    ++counts[a.page];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(UniformPattern, WriteRatioHonoured) {
  UniformPattern p(10, 0.25);
  sim::Rng rng(2);
  int writes = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) writes += p.next(rng).is_write;
  EXPECT_NEAR(static_cast<double>(writes) / kN, 0.25, 0.01);
}

TEST(SequentialPattern, SweepsInOrderAndWraps) {
  SequentialPattern p(5, 0.0);
  sim::Rng rng(3);
  std::vector<std::uint64_t> pages;
  for (int i = 0; i < 12; ++i) pages.push_back(p.next(rng).page);
  EXPECT_EQ(pages, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 0, 1, 2, 3, 4,
                                               0, 1}));
}

TEST(SequentialPattern, StartOffsetRespected) {
  SequentialPattern p(10, 0.0, 7);
  sim::Rng rng(4);
  EXPECT_EQ(p.next(rng).page, 7u);
  EXPECT_EQ(p.next(rng).page, 8u);
}

TEST(ZipfianPattern, ScrambledStaysInRange) {
  ZipfianPattern p(333, 0.99, 0.5, /*scrambled=*/true);
  sim::Rng rng(5);
  for (int i = 0; i < 10'000; ++i) ASSERT_LT(p.next(rng).page, 333u);
  EXPECT_EQ(p.pages(), 333u);
}

TEST(HotsetPattern, HotPagesAbsorbConfiguredShare) {
  HotsetPattern p(1000, 0.10, 0.90, 0.0);
  EXPECT_EQ(p.hot_pages(), 100u);
  sim::Rng rng(6);
  int hot = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hot += p.next(rng).page < 100;
  EXPECT_NEAR(static_cast<double>(hot) / kN, 0.90, 0.01);
}

TEST(HotsetPattern, ColdAccessesAvoidHotRange) {
  HotsetPattern p(100, 0.10, 0.0, 0.0);  // never hot
  sim::Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto a = p.next(rng);
    ASSERT_GE(a.page, 10u);
    ASSERT_LT(a.page, 100u);
  }
}

TEST(HotsetPattern, TinyRegionsClampHotSetToOnePage) {
  HotsetPattern p(3, 0.01, 1.0, 0.0);
  EXPECT_EQ(p.hot_pages(), 1u);
  sim::Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.next(rng).page, 0u);
}

TEST(SkewedHotsetPattern, HotShareAndInternalSkew) {
  SkewedHotsetPattern p(1000, 0.10, 0.90, 0.0, /*hot_theta=*/0.99);
  EXPECT_EQ(p.hot_pages(), 100u);
  sim::Rng rng(12);
  std::vector<int> counts(1000, 0);
  constexpr int kN = 200'000;
  int hot = 0;
  for (int i = 0; i < kN; ++i) {
    const auto a = p.next(rng);
    ASSERT_LT(a.page, 1000u);
    hot += a.page < 100;
    ++counts[a.page];
  }
  EXPECT_NEAR(static_cast<double>(hot) / kN, 0.90, 0.01);
  // Inside the hot set, popularity is skewed: the hottest key far exceeds
  // the hot-set average (a flat HotsetPattern would give ~1800 each).
  const int hottest = *std::max_element(counts.begin(), counts.begin() + 100);
  EXPECT_GT(hottest, 4 * (kN * 90 / 100) / 100);
  // Cold region stays uniform.
  for (int i = 100; i < 1000; ++i) EXPECT_LT(counts[i], 100);
}

TEST(SkewedHotsetPattern, GradientSurvivesThresholds) {
  // The property that matters for Fig. 1: some hot pages are much hotter
  // than the hot-set median, so a global threshold cuts *within* the set.
  SkewedHotsetPattern p(500, 0.2, 1.0, 0.0);
  sim::Rng rng(13);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[p.next(rng).page];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  EXPECT_GT(counts[4], 3 * counts[50]) << "top keys dominate the median";
}

class WriteRatioP : public ::testing::TestWithParam<double> {};

// Property: every pattern honours its write ratio.
TEST_P(WriteRatioP, AllPatternsHonourWriteRatio) {
  const double ratio = GetParam();
  sim::Rng rng(10);
  std::vector<std::unique_ptr<AccessPattern>> patterns;
  patterns.push_back(std::make_unique<UniformPattern>(64, ratio));
  patterns.push_back(std::make_unique<SequentialPattern>(64, ratio));
  patterns.push_back(std::make_unique<ZipfianPattern>(64, 0.9, ratio));
  patterns.push_back(std::make_unique<HotsetPattern>(64, 0.1, 0.9, ratio));
  for (auto& p : patterns) {
    int writes = 0;
    constexpr int kN = 40'000;
    for (int i = 0; i < kN; ++i) writes += p->next(rng).is_write;
    EXPECT_NEAR(static_cast<double>(writes) / kN, ratio, 0.015);
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, WriteRatioP,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace vulcan::wl
