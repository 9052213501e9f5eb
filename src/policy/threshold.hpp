// Capacity-threshold planner: the Memtis baseline and its MTM sibling.
//
//   * All pages of all managed workloads are ranked by absolute (decayed)
//     access count; the hottest `fast_capacity` pages are "hot".
//   * Hot pages not yet fast are promoted, hottest first; fast pages below
//     the global threshold are demoted, coldest first.
//   * Vanilla mechanism: full preparation broadcast, process-wide
//     shootdowns, no shadowing.
//
// Because the threshold is global over raw counts, an intense best-effort
// workload monopolises the fast tier — this is the policy the paper uses to
// demonstrate the cold page dilemma (Fig. 1).
//
// The two baselines differ only in how a promotion is copied:
//
//   * Memtis (Lee et al., SOSP'23) copies every page asynchronously.
//   * MTM (Ren et al., EuroSys'24), the system §3.5 cites as the
//     inspiration for access-pattern-aware copy-mode selection, chooses by
//     *write intensity only*: synchronous for write-intensive pages,
//     asynchronous for read-intensive ones. It has no thread-ownership
//     awareness and no priority ordering between classes — the gap
//     Vulcan's Table 1 closes by adding private/shared bias.
#pragma once

#include "policy/policy.hpp"

namespace vulcan::policy {

class ThresholdPlanner : public SystemPolicy {
 public:
  struct Params {
    /// Keep a small reserve unclassified to avoid thrash at the boundary.
    double capacity_slack = 0.02;
    std::uint64_t max_migrations_per_workload = 4096;
    unsigned online_cpus = 32;
  };

  void plan_epoch(std::span<WorkloadView> workloads, mem::Topology& topo,
                  sim::Rng& rng) override;

  mig::Migrator::Config migrator_config() const override;

  /// The global hot threshold computed in the last epoch (observable for
  /// tests and the Fig. 1 harness).
  double last_threshold() const { return last_threshold_; }

 protected:
  /// `write_sync`: promote write-intensive pages with a synchronous copy
  /// (MTM); otherwise every copy is asynchronous (Memtis).
  ThresholdPlanner(Params params, bool write_sync)
      : params_(params), write_sync_(write_sync) {}

 private:
  Params params_;
  bool write_sync_;
  double last_threshold_ = 0.0;
};

class MemtisPolicy final : public ThresholdPlanner {
 public:
  explicit MemtisPolicy(Params params = {})
      : ThresholdPlanner(params, /*write_sync=*/false) {}
  std::string_view name() const override { return "memtis"; }
};

class MtmPolicy final : public ThresholdPlanner {
 public:
  explicit MtmPolicy(Params params = {})
      : ThresholdPlanner(params, /*write_sync=*/true) {}
  std::string_view name() const override { return "mtm"; }
};

}  // namespace vulcan::policy
