// Multi-trial experiment statistics: the paper reports means with 95%
// confidence intervals over repeated seeded trials; this helper turns the
// accumulated trial results of any scalar metric into those error bars.
#pragma once

#include <cmath>

#include "sim/stats.hpp"

namespace vulcan::runtime {

/// Half-width of the 95% confidence interval of the mean, using the
/// normal approximation for n >= 30 and Student-t critical values below
/// (adequate for experiment error bars).
inline double ci95_halfwidth(const sim::RunningStat& stat) {
  const auto n = stat.count();
  if (n < 2) return 0.0;
  // Two-sided t_{0.975} critical values for small samples.
  static constexpr double kT[] = {0,     0,     12.71, 4.303, 3.182, 2.776,
                                  2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
                                  2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                                  2.110, 2.101, 2.093};
  const double t = n <= 20 ? kT[n] : 1.96;
  // Sample (not population) standard deviation.
  const double var_sample =
      stat.variance() * static_cast<double>(n) / static_cast<double>(n - 1);
  return t * std::sqrt(var_sample / static_cast<double>(n));
}

}  // namespace vulcan::runtime
