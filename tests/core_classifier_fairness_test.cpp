#include <gtest/gtest.h>

#include <cmath>

#include "core/classifier.hpp"
#include "core/fairness.hpp"

namespace vulcan::core {
namespace {

// ------------------------------------------------------------- classifier

TEST(Classifier, DefaultsToLcUntilEvidence) {
  LcBeClassifier c;
  EXPECT_TRUE(c.latency_critical());
  c.record_epoch(100.0);
  EXPECT_TRUE(c.latency_critical()) << "insufficient samples: protect";
}

TEST(Classifier, FlatRateBecomesBestEffort) {
  LcBeClassifier c;
  for (int i = 0; i < 12; ++i) c.record_epoch(1e6);
  EXPECT_FALSE(c.latency_critical());
  EXPECT_NEAR(c.cv(), 0.0, 1e-9);
}

TEST(Classifier, BurstyRateStaysLatencyCritical) {
  LcBeClassifier c;
  for (int i = 0; i < 12; ++i) {
    const double rate = 1e6 * (1.0 + 0.3 * std::sin(i * 0.9));
    c.record_epoch(rate);
  }
  EXPECT_TRUE(c.latency_critical());
  EXPECT_GT(c.cv(), c.params().cv_threshold);
}

TEST(Classifier, SlidingWindowForgetsOldBehaviour) {
  LcBeClassifier c({.window = 6, .min_samples = 3, .cv_threshold = 0.10});
  // Bursty past...
  for (int i = 0; i < 6; ++i) c.record_epoch(i % 2 ? 2e6 : 1e6);
  EXPECT_TRUE(c.latency_critical());
  // ...then settles flat: the window slides past the bursts.
  for (int i = 0; i < 6; ++i) c.record_epoch(1.5e6);
  EXPECT_FALSE(c.latency_critical());
}

TEST(Classifier, ZeroRateIsHandled) {
  LcBeClassifier c({.window = 4, .min_samples = 2, .cv_threshold = 0.1});
  for (int i = 0; i < 4; ++i) c.record_epoch(0.0);
  EXPECT_EQ(c.cv(), 0.0);
  EXPECT_FALSE(c.latency_critical());
}

// --------------------------------------------------------------- fairness

TEST(Jain, PerfectEqualityIsOne) {
  const double x[] = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0);
}

TEST(Jain, TotalMonopolyIsOneOverN) {
  const double x[] = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 0.25);
}

TEST(Jain, ScaleInvariant) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(jain_index(a), jain_index(b));
}

TEST(Jain, EmptyAndZeroAreVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const double z[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(z), 1.0);
}

TEST(JainFromSlowdowns, ReciprocalOfPositiveSlowdowns) {
  const double slowdowns[] = {1.0, 2.0, 4.0};
  const double progress[] = {1.0, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(jain_from_slowdowns(slowdowns), jain_index(progress));
}

TEST(JainFromSlowdowns, SkipsNonPositiveEntries) {
  // 0 means "no epochs recorded", not "zero progress": it must not drag
  // the index down (this was the AppStats-vs-report divergence).
  const double with_idle[] = {1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_from_slowdowns(with_idle), 1.0);
  const double all_idle[] = {0.0, -1.0};
  EXPECT_DOUBLE_EQ(jain_from_slowdowns(all_idle), 1.0);
  EXPECT_DOUBLE_EQ(jain_from_slowdowns({}), 1.0);
}

class JainBoundsP : public ::testing::TestWithParam<int> {};

// Property: 1/N <= J(x) <= 1 for any non-negative non-zero vector.
TEST_P(JainBoundsP, BoundsHold) {
  const int n = GetParam();
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) x[i] = static_cast<double>((i * 37) % 11);
  x[0] += 1.0;  // ensure nonzero
  const double j = jain_index(x);
  EXPECT_GE(j, 1.0 / n - 1e-12);
  EXPECT_LE(j, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JainBoundsP, ::testing::Values(1, 2, 3, 8, 32));

// One epoch's rows: row i holds alloc[i] fast pages at hit ratio fthr[i].
std::vector<obs::AppEpochRow> rows(const std::vector<double>& alloc,
                                   const std::vector<double>& fthr) {
  std::vector<obs::AppEpochRow> out(alloc.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].fast_pages = static_cast<std::uint64_t>(alloc[i]);
    out[i].fthr = fthr[i];
  }
  return out;
}

TEST(Cfi, WeightsAllocationByUsefulness) {
  // Two workloads with equal allocations, but one wastes its fast memory
  // (FTHR 0): CFI must be below plain Jain of allocations (which is 1).
  CfiAccumulator acc(2);
  acc.record_epoch(rows({100.0, 100.0}, {1.0, 0.0}));
  EXPECT_LT(acc.cfi(), 1.0);
  EXPECT_DOUBLE_EQ(acc.cfi(), 0.5);  // degenerate monopoly of useful alloc
}

TEST(Cfi, AccumulatesOverEpochs) {
  CfiAccumulator acc(2);
  acc.record_epoch(rows({100.0, 0.0}, {1.0, 1.0}));
  EXPECT_DOUBLE_EQ(acc.cfi(), 0.5);
  // Long-term: both got the same cumulative share.
  acc.record_epoch(rows({0.0, 100.0}, {1.0, 1.0}));
  EXPECT_DOUBLE_EQ(acc.cfi(), 1.0);
  EXPECT_EQ(acc.epochs(), 2u);
}

TEST(Cfi, GrowsWithLateArrivals) {
  CfiAccumulator acc;
  acc.record_epoch(rows({10.0}, {1.0}));
  acc.record_epoch(rows({10.0, 10.0}, {1.0, 1.0}));
  EXPECT_GT(acc.cfi(), 0.5);
  EXPECT_LT(acc.cfi(), 1.0) << "the late arrival accumulated less";
}

}  // namespace
}  // namespace vulcan::core
