// Per-application fairness attribution (the paper's whole thesis is
// *per-app* slowdown; system-wide aggregates cannot show who paid for a
// migration or a shootdown).
//
// AppStats rolls two streams into the shared metrics registry:
//
//  * per-epoch rows pushed by the runtime — fast-tier residency,
//    migration stall/daemon cycles, shootdown IPIs absorbed, and the
//    slowdown-vs-isolated estimate from the cost model (the inverse of the
//    normalised performance metric);
//  * closing spans (as a SpanSink) — per-app per-kind cycle totals, so the
//    timeline's cost attribution and the registry always agree.
//
// Every instrument is keyed `app.<name>{app=N}`; fairness over the apps is
// published as Jain's index over per-app progress (1/slowdown), both for
// the latest epoch and cumulatively.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/clock.hpp"

namespace vulcan::obs {

/// One app's measurements for one epoch, as attributed by the runtime: a
/// row of the per-epoch metrics table, the sample AppStats folds into the
/// registry and the input of the CFI. Rows are index-aligned by app; a
/// departed app keeps an all-zero row, recognised by performance == 0
/// (a live row's performance is always positive, since the ideal
/// cycles-per-access is).
struct AppEpochRow {
  double fthr = 0.0;           ///< fast-tier hit ratio measured this epoch
  /// Normalised to the all-fast ideal (0..1]: the cost model's ideal
  /// cycles-per-access over the actual. Its inverse is the slowdown.
  double performance = 0.0;
  double avg_latency_ns = 0.0; ///< average exposed memory latency
  std::uint64_t fast_pages = 0;  ///< fast-tier residency at epoch end
  std::uint64_t slow_pages = 0;
  std::uint64_t quota = 0;     ///< policy quota (UINT64_MAX if unmanaged)
  double accesses = 0.0;       ///< real (weighted) accesses this epoch
  sim::Cycles stall_cycles = 0;   ///< migration stalls charged to the app
  sim::Cycles daemon_cycles = 0;  ///< migration-thread cycles
  std::uint64_t migrated = 0;
  std::uint64_t failed_migrations = 0;
  std::uint64_t shadow_remaps = 0;
  std::uint64_t shootdown_ipis = 0;  ///< remote cores interrupted for it

  bool live() const { return performance > 0.0; }
};

class AppStats final : public SpanSink {
 public:
  AppStats() = default;
  explicit AppStats(Registry* registry) : registry_(registry) {}

  bool active() const { return registry_ != nullptr; }

  /// Fold one epoch's live rows (row i is app i) into the registry and
  /// refresh the fairness gauges.
  void record_epoch(std::span<const AppEpochRow> rows);

  /// SpanSink: attribute a closing span's cycles to its app.
  void on_span_closed(std::int32_t workload, SpanKind kind,
                      sim::Cycles duration) override;

  /// Jain's index over per-app progress (1/slowdown) for the last recorded
  /// epoch; 1.0 before any epoch.
  double jain_epoch() const { return jain_epoch_; }
  /// Jain's index over per-app mean progress across all epochs. Maintained
  /// incrementally (running Σprogress / Σprogress² with each sample
  /// retiring its app's previous contribution), so an epoch costs O(apps
  /// sampled), not O(apps ever seen) — the fleet battery's 128-app churn
  /// would otherwise rescan every historical app each epoch.
  double jain_cumulative() const { return jain_cumulative_; }
  /// Worst (largest) per-app slowdown in the last recorded epoch, and the
  /// app that suffered it (-1 before any epoch). The tail signal the fleet
  /// battery windows via the time-series store.
  double worst_slowdown() const { return worst_slowdown_; }
  std::int32_t worst_app() const { return worst_app_; }

  std::size_t apps() const { return per_app_.size(); }

 private:
  struct PerApp {
    // Cached instrument handles (resolved on first sight of the app).
    Counter* fast_page_epochs = nullptr;
    Counter* stall_cycles = nullptr;
    Counter* daemon_cycles = nullptr;
    Counter* shootdown_ipis = nullptr;
    Gauge* fast_pages = nullptr;
    Gauge* slowdown = nullptr;
    Gauge* slowdown_mean = nullptr;
    Histogram* slowdown_hist = nullptr;
    std::array<Counter*, kSpanKindCount> span_cycles{};
    // Accumulators for the cumulative fairness index.
    double slowdown_sum = 0.0;
    std::uint64_t epochs = 0;
  };

  PerApp& app(std::int32_t index);

  Registry* registry_ = nullptr;
  std::vector<PerApp> per_app_;
  double jain_epoch_ = 1.0;
  double jain_cumulative_ = 1.0;
  double worst_slowdown_ = 1.0;
  std::int32_t worst_app_ = -1;
  // Incremental cumulative-Jain state over per-app mean progress
  // (epochs / slowdown_sum): running sum, sum of squares, and the number
  // of apps that have contributed at least one epoch.
  double progress_sum_ = 0.0;
  double progress_sq_sum_ = 0.0;
  std::uint64_t contributors_ = 0;
};

}  // namespace vulcan::obs
