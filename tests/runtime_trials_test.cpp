#include "runtime/trials.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace vulcan::runtime {
namespace {

TEST(Ci95, ZeroForDegenerateSamples) {
  sim::RunningStat s;
  EXPECT_DOUBLE_EQ(ci95_halfwidth(s), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(s), 0.0);
}

TEST(Ci95, KnownSmallSample) {
  sim::RunningStat s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  // mean 2, sample stddev 1, n=3 -> t=4.303 -> hw = 4.303/sqrt(3).
  EXPECT_NEAR(ci95_halfwidth(s), 4.303 / std::sqrt(3.0), 1e-9);
}

TEST(Ci95, ShrinksWithSampleSize) {
  sim::Rng rng(3);
  sim::RunningStat small, large;
  for (int i = 0; i < 5; ++i) small.add(rng.uniform());
  for (int i = 0; i < 500; ++i) large.add(rng.uniform());
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Ci95, CoversTheTrueMean) {
  // Frequentist sanity: over many experiments of n=10 uniform samples,
  // the 95% CI should contain the true mean (0.5) ~95% of the time.
  sim::Rng rng(7);
  int covered = 0;
  constexpr int kExperiments = 400;
  for (int e = 0; e < kExperiments; ++e) {
    sim::RunningStat s;
    for (int i = 0; i < 10; ++i) s.add(rng.uniform());
    const double hw = ci95_halfwidth(s);
    covered += (s.mean() - hw <= 0.5 && 0.5 <= s.mean() + hw);
  }
  const double rate = static_cast<double>(covered) / kExperiments;
  EXPECT_GT(rate, 0.90);
  EXPECT_LT(rate, 0.99);
}

}  // namespace
}  // namespace vulcan::runtime
