#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace vulcan::sim {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Ema::update(double x) {
  if (!primed_) {
    value_ = x;
    primed_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
  return value_;
}

}  // namespace vulcan::sim
