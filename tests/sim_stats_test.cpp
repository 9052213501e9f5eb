#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"

namespace vulcan::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  Rng rng(3);
  RunningStat all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Ema, FirstSampleSeeds) {
  Ema e(0.8);
  EXPECT_FALSE(e.primed());
  e.update(0.5);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 0.5);
}

TEST(Ema, MatchesPaperEquation2) {
  // FTHR = alpha * H_t + (1 - alpha) * H_{t-1}, alpha = 0.8.
  Ema e(0.8);
  e.update(1.0);
  e.update(0.5);
  EXPECT_DOUBLE_EQ(e.value(), 0.8 * 0.5 + 0.2 * 1.0);
  e.update(0.0);
  EXPECT_NEAR(e.value(), 0.2 * 0.6, 1e-12);
}

class EmaContractionP : public ::testing::TestWithParam<double> {};

// Property: the EMA of values in [0,1] stays in [0,1] and converges toward a
// constant input stream.
TEST_P(EmaContractionP, StaysBoundedAndConverges) {
  const double alpha = GetParam();
  Ema e(alpha);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    e.update(rng.uniform());
    ASSERT_GE(e.value(), 0.0);
    ASSERT_LE(e.value(), 1.0);
  }
  for (int i = 0; i < 200; ++i) e.update(0.75);
  EXPECT_NEAR(e.value(), 0.75, alpha >= 0.05 ? 1e-3 : 0.3);
}

INSTANTIATE_TEST_SUITE_P(Alphas, EmaContractionP,
                         ::testing::Values(0.1, 0.5, 0.8, 1.0));

}  // namespace
}  // namespace vulcan::sim
