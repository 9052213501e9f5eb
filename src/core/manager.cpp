#include "core/manager.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace vulcan::core {

void VulcanManager::ensure_state(
    std::span<policy::WorkloadView> workloads) {
  for (const auto& view : workloads) {
    const auto [it, inserted] = state_.try_emplace(view.index);
    PerWorkload& pw = it->second;
    if (inserted) {
      pw.queues = policy::BiasedQueues({.mlfq_boost_heat =
                                            params_.mlfq_boost_heat});
    }
    if (!pw.qos) {
      pw.qos = std::make_unique<QosTracker>(view.as->rss_pages(),
                                            params_.fthr_alpha);
    }
  }
}

bool VulcanManager::managed(const policy::WorkloadView& view) const {
  if (!params_.whitelist.has_value()) return true;
  if (!view.workload) return true;  // anonymous views default to managed
  return params_.whitelist->contains(view.workload->spec().name);
}

bool VulcanManager::migration_gated(const mem::Topology& topo) const {
  if (!params_.enable_colloid_gate || topo.tier_count() < 2) return false;
  const double fast =
      static_cast<double>(topo.loaded_latency_ns(mem::kFastTier));
  const double slow =
      static_cast<double>(topo.loaded_latency_ns(mem::kSlowTier));
  return fast >= params_.colloid_latency_ratio * slow;
}

mem::TierId VulcanManager::placement_tier(const policy::WorkloadView& view,
                                          const mem::Topology& topo) const {
  // Quota-aware placement: fault into the fast tier only while within the
  // workload's CBFRP share (and physical availability).
  if (view.fast_quota != UINT64_MAX &&
      view.as->pages_in_tier(mem::kFastTier) >= view.fast_quota) {
    return mem::kSlowTier;
  }
  return topo.allocator(mem::kFastTier).below_watermark(0.02)
             ? mem::kSlowTier
             : mem::kFastTier;
}

void VulcanManager::plan_workload(policy::WorkloadView& view,
                                  PerWorkload& state, std::uint64_t quota) {
  const std::uint64_t in_fast = view.as->pages_in_tier(mem::kFastTier);

  // Over quota: shed the coldest fast pages (shadow remaps make clean ones
  // nearly free). Urgent — the freed frames fund other workloads' quotas.
  if (in_fast > quota) {
    auto fast_cold = policy::TierHeatRanking::coldest(
        view, mem::kFastTier, policy::TierHeatRanking::kAnyHeat,
        in_fast - quota);
    for (std::uint64_t shed = 0; fast_cold.more(); ++shed) {
      // Measured against the promotion cut so the recorded benefit is
      // positive for genuinely cold pages (sign convention: positive iff
      // profitable, both directions).
      view.migration->enqueue_urgent(policy::make_request(
          view, fast_cold.next(), mem::kSlowTier, mig::CopyMode::kAsync,
          {.rank = shed,
           .threshold = params_.promote_min_heat,
           .queue_bias = -1.0}));
    }
    return;  // promotions wait until the quota is respected
  }

  // Under (or at) quota: promote the hottest slow pages into the headroom,
  // then *exchange* — pair remaining hot slow pages against colder fast
  // pages (with hysteresis) so placement quality keeps improving once the
  // quota is full instead of freezing.
  std::uint64_t headroom = quota - in_fast;

  // Hottest-first slow-tier ranking of the pages at or above the
  // promotion cut, materialized lazily: the chunk pre-scan, promotion loop
  // and exchange phase all stop at that cut or at an issue cap, so only
  // the consumed prefix is ever ordered. Duplicate pushes into the biased
  // queues make the pop count open-ended, so the cut is the only bound.
  auto slow_ranking = policy::TierHeatRanking::hottest(
      view, mem::kSlowTier, params_.promote_min_heat);
  std::vector<std::uint64_t> slow_hot;
  const auto slow_have = [&](std::size_t i) -> bool {
    while (slow_hot.size() <= i && slow_ranking.more()) {
      slow_hot.push_back(slow_ranking.next());
    }
    return i < slow_hot.size();
  };
  std::size_t next_hot = 0;

  // Refresh MLFQ levels of any backlog against fresh heat.
  const vm::Vpn base = view.as->base_vpn();
  state.queues.refresh([&](vm::Vpn vpn) {
    const std::uint64_t page = vpn - base;
    return page < view.tracker->pages() ? view.tracker->heat(page) : 0.0;
  });

  // Optional huge-page-unit promotion: densely-hot chunks move whole and
  // keep their 2 MB mapping (TLB coverage at the cost of hauling the
  // chunk's cold tail into fast memory).
  std::unordered_set<std::uint64_t> chunk_promoted;
  if (params_.enable_chunk_promotion) {
    std::unordered_map<std::uint64_t, unsigned> hot_per_chunk;
    for (std::size_t i = next_hot; slow_have(i); ++i) {
      ++hot_per_chunk[slow_hot[i] / sim::kPagesPerHuge];
    }
    const auto need = static_cast<unsigned>(params_.chunk_promotion_density *
                                            sim::kPagesPerHuge);
    std::uint64_t chunks_issued = 0;
    for (const auto& [chunk, hot] : hot_per_chunk) {
      if (hot < need) continue;
      if (headroom < sim::kPagesPerHuge) break;
      auto req = policy::make_request(
          view, chunk * sim::kPagesPerHuge, mem::kFastTier,
          mig::CopyMode::kAsync);
      req.whole_chunk = true;
      policy::record_decision(view, req,
                              {.rank = chunks_issued++,
                               .threshold = params_.promote_min_heat});
      view.migration->enqueue(req);
      chunk_promoted.insert(chunk);
      headroom -= sim::kPagesPerHuge;
    }
  }

  std::uint64_t pushed = 0;
  const std::uint64_t push_cap = std::max<std::uint64_t>(headroom * 4, 512);
  for (; slow_have(next_hot); ++next_hot) {
    const std::uint64_t page = slow_hot[next_hot];
    if (pushed >= push_cap || pushed >= headroom) break;
    if (params_.enable_chunk_promotion &&
        chunk_promoted.contains(page / sim::kPagesPerHuge)) {
      continue;  // covered by a whole-chunk request
    }
    auto req = policy::make_request(view, page, mem::kFastTier,
                                    mig::CopyMode::kAsync);
    // Queue bias: the MLFQ level the biased queues will file this under
    // (push() recomputes it after forcing the Table-1 copy mode).
    policy::record_decision(
        view, req,
        {.rank = pushed,
         .threshold = params_.promote_min_heat,
         .queue_bias = params_.enable_biased_queues
                           ? static_cast<double>(state.queues.effective_queue(req))
                           : 0.0});
    if (params_.enable_biased_queues) {
      pushed += state.queues.push(req) ? 1 : 0;
    } else {
      view.migration->enqueue(req);
      ++pushed;
    }
  }
  if (params_.enable_biased_queues && headroom > 0) {
    for (const auto& req : state.queues.drain(headroom)) {
      view.migration->enqueue(req);
    }
  }

  // Exchange phase: swap hot-slow against cold-fast while worthwhile.
  // Every pair takes one cold page, so at most exchange_cap are ranked.
  const std::uint64_t exchange_cap =
      std::max<std::uint64_t>(64, quota / 8);
  auto fast_cold = policy::TierHeatRanking::coldest(
      view, mem::kFastTier, policy::TierHeatRanking::kAnyHeat, exchange_cap);
  std::uint64_t exchanged = 0;
  for (; slow_have(next_hot) && fast_cold.more(); ++next_hot) {
    const std::uint64_t hot = slow_hot[next_hot];
    const std::uint64_t cold = fast_cold.next();
    const double hot_heat = view.tracker->heat(hot);
    const double cold_heat = std::max(view.tracker->heat(cold), 1e-9);
    if (hot_heat <= params_.exchange_hysteresis * cold_heat) {
      break;  // remaining swaps would churn pages of comparable heat
    }
    // Demotion threshold = the paired hot page's heat, so the recorded
    // benefit (threshold - heat) is the swap's heat gain; the promotion's
    // is its margin over the hysteresis rule it had to clear.
    view.migration->enqueue(policy::make_request(
        view, cold, mem::kSlowTier, mig::CopyMode::kAsync,
        {.rank = exchanged, .threshold = hot_heat}));
    auto promote = policy::make_request(view, hot, mem::kFastTier,
                                        mig::CopyMode::kAsync);
    if (params_.enable_biased_queues) {
      promote.mode = policy::BiasedQueues::mode_for(promote.write_intensive);
    }
    policy::record_decision(
        view, promote,
        {.rank = exchanged,
         .threshold = params_.exchange_hysteresis * cold_heat});
    view.migration->enqueue(promote);
    ++exchanged;
  }
}

void VulcanManager::plan_epoch(std::span<policy::WorkloadView> all_views,
                               mem::Topology& topo, sim::Rng& rng) {
  ensure_state(all_views);

  // §3.2 whitelisting: unmanaged workloads keep default kernel behaviour —
  // no quota, no planned migrations.
  std::vector<policy::WorkloadView*> views;
  views.reserve(all_views.size());
  for (auto& view : all_views) {
    if (managed(view)) {
      views.push_back(&view);
    } else {
      view.fast_quota = UINT64_MAX;
    }
  }
  const std::size_t n = views.size();
  if (n == 0) return;
  const auto workloads = [&](std::size_t i) -> policy::WorkloadView& {
    return *views[i];
  };

  const auto managed_pages = static_cast<std::uint64_t>(
      params_.managed_capacity_frac *
      static_cast<double>(topo.capacity_pages(mem::kFastTier)));
  const std::uint64_t gfmc = managed_pages / n;

  // (1)-(2): QoS + classification updates. The QoS equations take RSS_i as
  // the *actively used* memory (paper §3.3), measured from the heat tracker
  // and capped by the mapped footprint.
  for (std::size_t i = 0; i < n; ++i) {
    auto& view = workloads(i);
    auto& pw = state_.at(view.index);
    pw.qos->record_epoch(view.epoch_fast_accesses, view.epoch_slow_accesses);
    pw.classifier.record_epoch(view.epoch_fast_accesses +
                               view.epoch_slow_accesses);
    const std::uint64_t active =
        view.tracker->count_at_least(params_.active_min_heat);
    const auto active_rss = std::max<std::uint64_t>(
        1, std::min(view.as->rss_pages(),
                    static_cast<std::uint64_t>(
                        params_.active_slack * static_cast<double>(active))));
    pw.qos->set_rss_pages(active_rss);
  }

  // (3): demands and partitioning.
  std::vector<CbfrpWorkload> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& view = workloads(i);
    auto& pw = state_.at(view.index);
    CbfrpWorkload in;
    in.latency_critical = pw.classifier.latency_critical();
    const std::uint64_t eq3 = pw.qos->demand(
        view.as->pages_in_tier(mem::kFastTier), gfmc, params_.demand_gain);
    const std::uint64_t knee = std::min(
        view.as->rss_pages(),
        view.tracker->coverage_pages(params_.demand_floor_coverage));
    in.demand = std::max(eq3, knee);
    in.credits = pw.credits;
    inputs.push_back(in);
  }

  std::vector<std::uint64_t> quotas(n, gfmc);
  if (params_.enable_cbfrp) {
    const Cbfrp cbfrp({.unit_pages = params_.cbfrp_unit_pages});
    const CbfrpResult result = cbfrp.partition(inputs, managed_pages, rng);
    quotas = result.alloc;
    for (std::size_t i = 0; i < n; ++i) {
      state_.at(workloads(i).index).credits = result.credits[i];
    }
    // Observability: per-workload partition outcome (a demand fully
    // covered is a promotion, a shortfall a rejection), plus the round's
    // surplus-transfer and LC-reclaim counts.
    obs().counter("cbfrp.transfers").inc(result.transfers);
    obs().counter("cbfrp.reclaims").inc(result.reclaims);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& view = workloads(i);
      const bool won = result.alloc[i] >= inputs[i].demand;
      obs()
          .for_workload(static_cast<std::int32_t>(view.index))
          .event(won ? obs::EventKind::kCbfrpPromotion
                     : obs::EventKind::kCbfrpRejection,
                 result.alloc[i], inputs[i].demand, result.credits[i]);
      // Per-app partition outcome counters, keyed the same way the
      // attribution layer keys its metrics (vulcan_report joins on them).
      obs()
          .counter(std::string(won ? "cbfrp.promotions" : "cbfrp.rejections") +
                   "{app=" + std::to_string(view.index) + "}")
          .inc();
    }
    // Work conservation: capacity nobody demanded stays usable by anyone
    // (the physical allocator arbitrates). Strict quotas only bind under
    // contention, when total demand consumes the managed capacity.
    std::uint64_t granted = 0;
    for (const auto a : quotas) granted += a;
    const std::uint64_t leftover =
        managed_pages > granted ? managed_pages - granted : 0;
    for (auto& q : quotas) q += leftover;
  }

  // (4): per-workload planning + snapshot for observers, plus the §3.6
  // extensions: the Colloid gate pauses promotions under bandwidth
  // contention, and the replication advisor toggles targeted shootdowns
  // from measured benefit.
  const bool gated = migration_gated(topo);
  // Snapshot indexed by workload index (observers read qos()[index]):
  // sized to the highest *live* index, not every index ever admitted.
  std::size_t snapshot_size = 0;
  for (const auto& view : all_views) {
    snapshot_size = std::max<std::size_t>(snapshot_size, view.index + 1);
  }
  qos_snapshot_.assign(snapshot_size, WorkloadQos{});
  for (std::size_t i = 0; i < n; ++i) {
    auto& view = workloads(i);
    auto& pw = state_.at(view.index);
    view.fast_quota = quotas[i];

    if (params_.enable_adaptive_replication && view.migration) {
      mig::Migrator& migrator = view.migration->migrator();
      const auto& totals = migrator.totals();
      const std::uint64_t private_delta =
          totals.private_migrated - pw.last_private_migrated;
      pw.last_private_migrated = totals.private_migrated;
      const std::uint64_t faults = view.as->faulted_pages();
      const std::uint64_t fault_delta = faults - pw.last_faulted;
      pw.last_faulted = faults;
      pw.advisor.record_epoch(private_delta, view.as->thread_count(),
                              fault_delta);
      migrator.set_targeted_shootdown(params_.enable_replication &&
                                      pw.advisor.replication_worthwhile());
    }

    {
      // One plan span per workload (arg = granted quota) so the timeline
      // shows which app each slice of the policy round worked for.
      obs::ScopedSpan plan_span =
          obs()
              .for_workload(static_cast<std::int32_t>(view.index))
              .span(obs::SpanKind::kPlanWorkload,
                    static_cast<double>(quotas[i]));
      if (gated) {
        // Suspend promotions; still honour quota overflows (demotions
        // relieve the very contention that tripped the gate).
        const std::uint64_t in_fast = view.as->pages_in_tier(mem::kFastTier);
        if (in_fast > quotas[i]) plan_workload(view, pw, quotas[i]);
      } else {
        plan_workload(view, pw, quotas[i]);
      }
    }

    WorkloadQos& q = qos_snapshot_[view.index];
    q.fthr = pw.qos->fthr();
    q.gpt = pw.qos->guaranteed_target(gfmc);
    q.demand = inputs[i].demand;
    q.quota = quotas[i];
    q.credits = pw.credits;
    q.latency_critical = inputs[i].latency_critical;
  }
}

}  // namespace vulcan::core
