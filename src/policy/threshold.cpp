#include "policy/threshold.hpp"

#include <algorithm>
#include <limits>

namespace vulcan::policy {

void ThresholdPlanner::plan_epoch(std::span<WorkloadView> workloads,
                                  mem::Topology& topo, sim::Rng& rng) {
  (void)rng;
  // Global hotness ranking across every managed page (the defining Memtis
  // behaviour: raw access counts, no per-workload normalisation).
  std::vector<float> heats;
  std::uint64_t total_pages = 0;
  for (const WorkloadView& view : workloads) total_pages += view.tracker->pages();
  heats.reserve(total_pages);
  for (const WorkloadView& view : workloads) {
    const auto& tr = *view.tracker;
    for (std::uint64_t p = 0; p < tr.pages(); ++p) {
      const double h = tr.heat(p);
      if (h > 0.0) heats.push_back(static_cast<float>(h));
    }
  }
  const auto capacity = static_cast<std::uint64_t>(
      (1.0 - params_.capacity_slack) *
      static_cast<double>(topo.capacity_pages(mem::kFastTier)));
  // A fast tier too small to hold any page after the slack makes no page
  // hot: every promotion is refused and every fast page is demotable.
  double threshold = capacity == 0 ? std::numeric_limits<double>::infinity()
                                   : 1e-30;
  if (capacity > 0 && heats.size() > capacity) {
    auto nth = heats.begin() + static_cast<std::ptrdiff_t>(capacity - 1);
    std::nth_element(heats.begin(), nth, heats.end(), std::greater<float>());
    threshold = static_cast<double>(*nth);
  }
  last_threshold_ = threshold;

  const std::uint64_t cap = params_.max_migrations_per_workload;
  for (WorkloadView& view : workloads) {
    // Promote: slow pages at or above the global threshold, hottest first.
    auto slow_hot =
        TierHeatRanking::hottest(view, mem::kSlowTier, threshold, cap);
    for (std::uint64_t issued = 0; slow_hot.more(); ++issued) {
      const std::uint64_t page = slow_hot.next();
      // MTM's contribution: write-intensive pages copy synchronously (the
      // dirty-retry regime async handles poorly), read-intensive async.
      const bool sync = write_sync_ && view.tracker->write_intensive(page);
      view.migration->enqueue(make_request(
          view, page, mem::kFastTier,
          sync ? mig::CopyMode::kSync : mig::CopyMode::kAsync,
          {.rank = issued, .threshold = threshold}));
    }
    // Demote: fast pages below the global threshold, coldest first.
    auto fast_cold =
        TierHeatRanking::coldest(view, mem::kFastTier, threshold, cap);
    for (std::uint64_t issued = 0; fast_cold.more(); ++issued) {
      view.migration->enqueue_urgent(
          make_request(view, fast_cold.next(), mem::kSlowTier,
                       mig::CopyMode::kAsync,
                       {.rank = issued, .threshold = threshold,
                        .queue_bias = -1.0}));
    }
  }
}

mig::Migrator::Config ThresholdPlanner::migrator_config() const {
  mig::Migrator::Config cfg;
  cfg.mechanism.optimized_prep = false;
  cfg.mechanism.targeted_shootdown = false;  // no ownership knowledge
  cfg.mechanism.online_cpus = params_.online_cpus;
  cfg.shadowing = false;
  return cfg;
}

}  // namespace vulcan::policy
