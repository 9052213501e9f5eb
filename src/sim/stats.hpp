// Lightweight statistics primitives shared by the whole simulator:
// running moments and exponential moving averages.
#pragma once

#include <cstdint>

namespace vulcan::sim {

/// Streaming mean/variance/min/max (Welford). O(1) memory.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);
  void reset() { *this = RunningStat{}; }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exponential moving average with weight `alpha` on the newest sample —
/// the smoothing the paper's Eq. (2) applies to fast-tier hit ratios.
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}

  /// Fold in a new observation and return the updated average.
  double update(double x);

  double value() const { return value_; }
  bool primed() const { return primed_; }
  double alpha() const { return alpha_; }
  void reset() { primed_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;  // first sample seeds the average directly
};

}  // namespace vulcan::sim
