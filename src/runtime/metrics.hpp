// Per-epoch metric recording and CSV export for the experiment harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/app_stats.hpp"
#include "obs/exporter.hpp"

namespace vulcan::runtime {

struct EpochMetrics {
  double time_s = 0.0;
  std::vector<obs::AppEpochRow> workloads;  ///< one row per workload index
};

class MetricsRecorder {
 public:
  void record(EpochMetrics epoch) { epochs_.push_back(std::move(epoch)); }

  const std::vector<EpochMetrics>& epochs() const { return epochs_; }
  bool empty() const { return epochs_.empty(); }

  /// Mean of a per-workload field over epochs [from, to) where the
  /// workload existed *and ran*. Getter receives the workload's row.
  /// Departed (fleet-churned) workloads keep an index-aligned all-zero row
  /// each epoch; those rows are not live() and are excluded, so a
  /// workload's mean covers only its live epochs.
  template <typename Getter>
  double mean(std::size_t workload, Getter&& get, std::size_t from = 0,
              std::size_t to = SIZE_MAX) const {
    double sum = 0.0;
    std::size_t n = 0;
    const std::size_t hi = std::min(to, epochs_.size());
    for (std::size_t e = from; e < hi; ++e) {
      if (workload < epochs_[e].workloads.size() &&
          epochs_[e].workloads[workload].live()) {
        sum += get(epochs_[e].workloads[workload]);
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  double mean_performance(std::size_t workload, std::size_t from = 0) const {
    return mean(workload,
                [](const obs::AppEpochRow& m) { return m.performance; },
                from);
  }
  double mean_fthr(std::size_t workload, std::size_t from = 0) const {
    return mean(workload,
                [](const obs::AppEpochRow& m) { return m.fthr; }, from);
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
