// Watermark planner: the TPP baseline and its Nomad descendant.
//
//   * New allocations land in the fast tier until the low watermark.
//   * Promotion is reactive: a slow-tier page touched recently (observed
//     via NUMA-hint faults -> nonzero epoch heat) is promoted at once.
//   * Demotion is proactive reclamation: when fast free pages drop below
//     the low watermark, or promotions are about to exhaust them, the
//     coldest fast pages demote asynchronously (kswapd-style) until the
//     high watermark is restored.
//   * Mechanism is otherwise vanilla: full preparation broadcast,
//     process-wide shootdowns.
//
// Neither has a notion of per-workload fairness: whichever workload
// touches slow pages most aggressively wins the promotion race.
//
// The two baselines differ in how pages are copied and reclaimed:
//
//   * TPP (Maruf et al., ASPLOS'23) promotes *synchronously*, blocking the
//     faulting thread, without shadowing. Reclaim evicts the globally
//     coldest fast pages, one per workload per round-robin pass.
//   * Nomad (Xiang et al., OSDI'24) makes the copy *transactional and fully
//     asynchronous*: the page stays mapped during the copy and a
//     concurrent write aborts the transaction (async_max_retries = 1), so
//     program execution is never blocked. Promoted pages keep their
//     slow-tier shadow, so clean demotions are remap-only. Reclaim drains
//     one workload's cold list at a time, in workload order.
#pragma once

#include "policy/policy.hpp"

namespace vulcan::policy {

class WatermarkPlanner : public SystemPolicy {
 public:
  struct Params {
    double low_watermark = 0.02;   ///< begin demoting below this free frac
    double high_watermark = 0.06;  ///< demote until this free frac restored
    double promote_min_heat = 2000.0;  ///< ~two weighted hint-fault touches
    std::uint64_t max_promotions_per_workload = 2048;
    unsigned online_cpus = 32;
  };

  void plan_epoch(std::span<WorkloadView> workloads, mem::Topology& topo,
                  sim::Rng& rng) override;

  mig::Migrator::Config migrator_config() const override;

 protected:
  /// `transactional`: Nomad's shadowed asynchronous copies and in-order
  /// reclaim; otherwise TPP's synchronous copies and round-robin reclaim.
  WatermarkPlanner(Params params, bool transactional)
      : params_(params), transactional_(transactional) {}

 private:
  Params params_;
  bool transactional_;
};

class TppPolicy final : public WatermarkPlanner {
 public:
  explicit TppPolicy(Params params = {})
      : WatermarkPlanner(params, /*transactional=*/false) {}
  std::string_view name() const override { return "tpp"; }
};

class NomadPolicy final : public WatermarkPlanner {
 public:
  explicit NomadPolicy(Params params = {})
      : WatermarkPlanner(params, /*transactional=*/true) {}
  std::string_view name() const override { return "nomad"; }
};

}  // namespace vulcan::policy
