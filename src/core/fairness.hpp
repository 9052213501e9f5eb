// Fairness metrics (Vulcan §5.3):
//
//   Jain's fairness index      J(x) = (Σx)² / (N·Σx²)      in (0, 1]
//   FTHR-weighted Cumulative Jain's Fairness Index (Eq. 4):
//       X_i  = Σ_t x_i(t) · FTHR_i(t)
//       CFI  = (ΣX)² / (N·ΣX²)
//
// x_i(t) is workload i's fast-memory allocation at epoch t; weighting by
// the fast-tier hit ratio makes the index measure *useful* allocation, not
// just quantity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/app_stats.hpp"

namespace vulcan::core {

/// Jain's index over any non-negative vector. Returns 1.0 for empty/all-zero
/// input (vacuously fair). Inline so header-only consumers (obs::AppStats,
/// vulcan_report) share the one definition the fairness tests exercise.
inline double jain_index(std::span<const double> x) {
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (x.empty() || sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(x.size()) * sum_sq);
}

/// Jain's index over per-app progress rates derived from mean slowdowns
/// (progress_i = 1 / slowdown_i). A non-positive slowdown means "no
/// epochs recorded for this app yet" and is skipped — not counted as
/// zero progress. The live obs::AppStats path and the offline
/// report_jain path once disagreed on exactly that convention; both now
/// call this one definition and a regression test pins them together.
inline double jain_from_slowdowns(std::span<const double> slowdowns) {
  std::vector<double> progress;
  progress.reserve(slowdowns.size());
  for (const double s : slowdowns) {
    if (s > 0.0) progress.push_back(1.0 / s);
  }
  return jain_index(progress);
}

/// Accumulates Eq. 4 over epochs.
class CfiAccumulator {
 public:
  explicit CfiAccumulator(std::size_t workloads = 0) : x_(workloads, 0.0) {}

  /// Record one epoch: row i's fast pages held, weighted by its hit
  /// ratio. A departed app's all-zero row contributes nothing, but its
  /// cumulative term stays in the Eq. 4 population.
  void record_epoch(std::span<const obs::AppEpochRow> rows);

  /// Eq. 4 over everything recorded so far.
  double cfi() const;

  std::span<const double> cumulative() const { return x_; }
  std::uint64_t epochs() const { return epochs_; }

 private:
  std::vector<double> x_;
  std::uint64_t epochs_ = 0;
};

}  // namespace vulcan::core
