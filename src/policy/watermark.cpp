#include "policy/watermark.hpp"

#include <algorithm>

namespace vulcan::policy {

void WatermarkPlanner::plan_epoch(std::span<WorkloadView> workloads,
                                  mem::Topology& topo, sim::Rng& rng) {
  (void)rng;
  // --- Promotion: every recently-touched slow page. ----------------------
  const mig::CopyMode promote_mode =
      transactional_ ? mig::CopyMode::kAsync : mig::CopyMode::kSync;
  std::uint64_t promotions = 0;
  for (WorkloadView& view : workloads) {
    auto slow_hot = TierHeatRanking::hottest(
        view, mem::kSlowTier, params_.promote_min_heat,
        params_.max_promotions_per_workload);
    for (std::uint64_t issued = 0; slow_hot.more(); ++issued) {
      view.migration->enqueue(
          make_request(view, slow_hot.next(), mem::kFastTier, promote_mode,
                       {.rank = issued, .threshold = params_.promote_min_heat}));
      ++promotions;
    }
  }

  // --- Demotion: the kernel demotes for two reasons — the free watermark
  // was breached, or promotion-path allocations are about to fail (kswapd
  // reclaims ahead of migrate_pages pressure).
  auto& fast = topo.allocator(mem::kFastTier);
  const auto target_free = static_cast<std::uint64_t>(
      params_.high_watermark * static_cast<double>(fast.capacity()));
  std::uint64_t need = 0;
  if (fast.below_watermark(params_.low_watermark) ||
      promotions > fast.free_pages()) {
    const std::uint64_t for_watermark =
        target_free > fast.free_pages() ? target_free - fast.free_pages() : 0;
    const std::uint64_t for_promotions =
        promotions > fast.free_pages() ? promotions - fast.free_pages() : 0;
    need = std::max(for_watermark, for_promotions);
  }
  if (need == 0) return;

  std::uint64_t evicted = 0;
  const auto demote = [&](WorkloadView& view, std::uint64_t page) {
    // The eviction ruler is the promotion cut: a page below it would not
    // earn its fast-tier slot back, so demoting it is profitable
    // (predicted_benefit = cut - heat > 0 for genuinely cold pages).
    view.migration->enqueue_urgent(make_request(
        view, page, mem::kSlowTier, mig::CopyMode::kAsync,
        {.rank = evicted++,
         .threshold = params_.promote_min_heat,
         .queue_bias = -1.0}));
    --need;
  };

  if (transactional_) {
    // Nomad: drain one workload's cold list at a time, building each only
    // when the previous one ran dry.
    for (WorkloadView& view : workloads) {
      if (need == 0) break;
      auto fast_cold = TierHeatRanking::coldest(
          view, mem::kFastTier, TierHeatRanking::kAnyHeat, need);
      while (fast_cold.more()) demote(view, fast_cold.next());
    }
    return;
  }

  // TPP: evict the globally coldest fast pages (round-robin sweep over
  // workloads' cold lists; none can give more than `need` pages).
  std::vector<TierHeatRanking> cold_lists;
  cold_lists.reserve(workloads.size());
  for (WorkloadView& view : workloads) {
    cold_lists.push_back(TierHeatRanking::coldest(
        view, mem::kFastTier, TierHeatRanking::kAnyHeat, need));
  }
  bool progress = true;
  while (need > 0 && progress) {
    progress = false;
    for (std::size_t w = 0; w < workloads.size() && need > 0; ++w) {
      if (!cold_lists[w].more()) continue;
      demote(workloads[w], cold_lists[w].next());
      progress = true;
    }
  }
}

mig::Migrator::Config WatermarkPlanner::migrator_config() const {
  mig::Migrator::Config cfg;
  cfg.mechanism.optimized_prep = false;
  cfg.mechanism.targeted_shootdown = false;
  cfg.mechanism.online_cpus = params_.online_cpus;
  cfg.shadowing = transactional_;                 // Nomad's page shadowing
  if (transactional_) cfg.async_max_retries = 1;  // abort on first conflict
  return cfg;
}

}  // namespace vulcan::policy
