// Per-epoch metric recording and CSV export for the experiment harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "sim/clock.hpp"

namespace vulcan::runtime {

/// One workload's measurements for one epoch.
struct WorkloadEpochMetrics {
  double fthr = 0.0;           ///< fast-tier hit ratio measured this epoch
  double performance = 0.0;    ///< normalised to the all-fast ideal (0..1]
  double avg_latency_ns = 0.0; ///< average exposed memory latency
  std::uint64_t fast_pages = 0;
  std::uint64_t slow_pages = 0;
  std::uint64_t quota = 0;     ///< policy quota (UINT64_MAX if unmanaged)
  double accesses = 0.0;       ///< real (weighted) accesses this epoch
  sim::Cycles stall_cycles = 0;
  sim::Cycles daemon_cycles = 0;
  std::uint64_t migrated = 0;
  std::uint64_t failed_migrations = 0;
  std::uint64_t shadow_remaps = 0;
};

struct EpochMetrics {
  double time_s = 0.0;
  std::vector<WorkloadEpochMetrics> workloads;
};

class MetricsRecorder {
 public:
  void record(EpochMetrics epoch) { epochs_.push_back(std::move(epoch)); }

  const std::vector<EpochMetrics>& epochs() const { return epochs_; }
  bool empty() const { return epochs_.empty(); }

  /// Mean of a per-workload field over epochs [from, to) where the
  /// workload existed *and ran*. Getter receives the workload metrics.
  /// Departed (fleet-churned) workloads keep an index-aligned all-zero row
  /// each epoch; those rows are identified by performance == 0 (live rows
  /// always have performance > 0 since the ideal CPA is positive) and
  /// excluded, so a workload's mean covers only its live epochs.
  template <typename Getter>
  double mean(std::size_t workload, Getter&& get, std::size_t from = 0,
              std::size_t to = SIZE_MAX) const {
    double sum = 0.0;
    std::size_t n = 0;
    const std::size_t hi = std::min(to, epochs_.size());
    for (std::size_t e = from; e < hi; ++e) {
      if (workload < epochs_[e].workloads.size() &&
          epochs_[e].workloads[workload].performance > 0.0) {
        sum += get(epochs_[e].workloads[workload]);
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  double mean_performance(std::size_t workload, std::size_t from = 0) const {
    return mean(workload,
                [](const WorkloadEpochMetrics& m) { return m.performance; },
                from);
  }
  double mean_fthr(std::size_t workload, std::size_t from = 0) const {
    return mean(workload,
                [](const WorkloadEpochMetrics& m) { return m.fthr; }, from);
  }

  /// Column names of the per-epoch-per-workload table (shared by every
  /// export backend).
  static const std::vector<std::string>& columns();

  /// Stream the whole table (one row per epoch x workload) through any
  /// obs::Exporter backend — CSV, JSONL, or a future sink.
  void write(obs::Exporter& exporter) const;

 private:
  std::vector<EpochMetrics> epochs_;
};

}  // namespace vulcan::runtime
