// Tiering policy interface.
//
// A SystemPolicy sees every managed workload once per epoch and enqueues
// MigrationRequests into the per-workload migration threads. Baselines
// (TPP, Memtis, Nomad) are global policies that rank pages across all
// workloads by raw hotness; Vulcan plans per workload inside CBFRP quotas.
// The policy also fixes mechanism-level choices (prep optimisation,
// shootdown targeting, shadowing) via migrator_config().
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "mem/topology.hpp"
#include "mig/migration_thread.hpp"
#include "obs/scope.hpp"
#include "prof/heat.hpp"
#include "sim/rng.hpp"
#include "vm/address_space.hpp"
#include "wl/workload.hpp"

namespace vulcan::obs {
class ProvenanceLedger;
}

namespace vulcan::policy {

/// Everything a policy may inspect/affect about one workload.
struct WorkloadView {
  unsigned index = 0;
  wl::Workload* workload = nullptr;
  vm::AddressSpace* as = nullptr;
  prof::HeatTracker* tracker = nullptr;
  mig::MigrationThread* migration = nullptr;
  /// Fast-tier page quota for this workload this epoch. Baselines leave it
  /// unbounded; Vulcan's CBFRP writes it (runtime copies it in).
  std::uint64_t fast_quota = UINT64_MAX;
  /// Epoch access census filled by the runtime before plan_epoch(): real
  /// (weighted) access counts that landed in each tier.
  double epoch_fast_accesses = 0;
  double epoch_slow_accesses = 0;
  /// Decision provenance ledger; nullptr (the default) disables recording.
  obs::ProvenanceLedger* ledger = nullptr;
};

class SystemPolicy {
 public:
  virtual ~SystemPolicy() = default;

  /// Plan one epoch: inspect trackers, enqueue promotions/demotions.
  virtual void plan_epoch(std::span<WorkloadView> workloads,
                          mem::Topology& topo, sim::Rng& rng) = 0;

  /// Preferred tier for new page faults of `view`'s workload.
  virtual mem::TierId placement_tier(const WorkloadView& view,
                                     const mem::Topology& topo) const {
    (void)view;
    // Default (kernel-like): allocate fast until nearly full.
    return topo.allocator(mem::kFastTier).below_watermark(0.02)
               ? mem::kSlowTier
               : mem::kFastTier;
  }

  /// Mechanism options this policy's migrator should use.
  virtual mig::Migrator::Config migrator_config() const = 0;

  /// Workload `index` left the system (fleet churn): drop any per-workload
  /// state keyed on it. The runtime stops passing the index to plan_epoch
  /// from the same epoch on. Default: stateless policies ignore it.
  virtual void on_workload_departed(unsigned index) { (void)index; }

  virtual std::string_view name() const = 0;

  /// Attach observability. The runtime calls this once at system
  /// construction; policies may cache instruments off `obs()` and emit
  /// decision events (quota grants, CBFRP outcomes) during plan_epoch().
  void set_obs(obs::Scope scope) { obs_ = std::move(scope); }

 protected:
  const obs::Scope& obs() const { return obs_; }

 private:
  obs::Scope obs_;
};

/// Helper shared by policies: build a request for `page` of `view`.
mig::MigrationRequest make_request(const WorkloadView& view,
                                   std::uint64_t page, mem::TierId to,
                                   mig::CopyMode mode);

/// The evidence behind one enqueue, recorded into the provenance ledger.
/// `rank` is the page's position in this policy's issue order this epoch,
/// `threshold` the admission value it was measured against (promote-min
/// heat, the Memtis global cut, a cascade tier boundary, ...), and
/// `queue_bias` the scheduling bias applied: -1 urgent front-of-queue, 0
/// normal, >=0 the MLFQ level under Vulcan's biased queues.
struct DecisionContext {
  std::uint64_t rank = 0;
  double threshold = 0.0;
  double queue_bias = 0.0;
};

/// Record `req` as a DecisionRecord in the view's ledger (no-op without
/// one) and stamp req.provenance so the migrator can link the outcome.
/// Always stamps req.predicted_benefit — the heat margin over
/// ctx.threshold, signed towards the move's direction so it is positive
/// iff the policy predicts profit (promotions want heat above the cut,
/// demotions below it; direction comes from the page's live tier) — even
/// when no ledger is attached, so admission control can score requests in
/// ledger-off runs.
void record_decision(const WorkloadView& view, mig::MigrationRequest& req,
                     const DecisionContext& ctx);

/// make_request + record_decision in one call — the common shape for
/// policies whose context is known before the request is built.
mig::MigrationRequest make_request(const WorkloadView& view,
                                   std::uint64_t page, mem::TierId to,
                                   mig::CopyMode mode,
                                   const DecisionContext& ctx);

/// Heat ranking of `view`'s pages resident in `tier`, hottest or coldest
/// first, cut to the prefix the caller's loop consumes. The caller passes
/// its own stop rule: a heat bound (hottest-first rankings keep pages with
/// heat >= bound, coldest-first ones pages with heat < bound, compared on
/// the same `double` the caller reads from the tracker) and a pop limit.
/// Only the pages that pass are collected; the `limit` first of them are
/// selected with `nth_element` and yielded in order from windows that
/// grow x4 (each selected with `nth_element`, then radix-sorted), so a
/// planner pays O(m) for the scan plus the order of what it consumes, not
/// an O(m log m) sort of a whole tier. Every packed (heat, page) key is
/// unique, so the pops are exactly the prefix an unbounded ranking gives.
class TierHeatRanking {
 public:
  static constexpr std::uint64_t kNoLimit = UINT64_MAX;
  /// A coldest-first bound that keeps every page.
  static constexpr double kAnyHeat = std::numeric_limits<double>::infinity();

  /// Pages with heat >= `min_heat`, hottest first, at most `limit` of them.
  static TierHeatRanking hottest(const WorkloadView& view, mem::TierId tier,
                                 double min_heat,
                                 std::uint64_t limit = kNoLimit) {
    return TierHeatRanking(view, tier, /*hottest_first=*/true, min_heat,
                           limit);
  }

  /// Pages with heat < `below_heat`, coldest first, at most `limit` of them.
  static TierHeatRanking coldest(const WorkloadView& view, mem::TierId tier,
                                 double below_heat,
                                 std::uint64_t limit = kNoLimit) {
    return TierHeatRanking(view, tier, /*hottest_first=*/false, below_heat,
                           limit);
  }

  /// True while ranked pages remain.
  bool more() const { return next_ < keys_.size(); }

  /// The next page id in ranking order. Precondition: more().
  std::uint64_t next();

 private:
  TierHeatRanking(const WorkloadView& view, mem::TierId tier,
                  bool hottest_first, double bound, std::uint64_t limit);

  std::vector<std::uint64_t> keys_;  ///< packed (heat, page) keys that passed
  std::size_t next_ = 0;             ///< next key to yield
  std::size_t ordered_ = 0;          ///< keys_[0, ordered_) are sorted
  std::size_t window_ = 256;         ///< size of the next sorted window
  std::vector<std::uint64_t> scratch_;  ///< the window sort's other buffer
};

}  // namespace vulcan::policy
