// Behavioural tests of the TPP / Memtis / Nomad baseline policies and the
// VulcanManager over hand-built workload views.
#include <gtest/gtest.h>

#include <array>

#include "core/manager.hpp"
#include "policy/threshold.hpp"
#include "policy/watermark.hpp"
#include "vm/mmu.hpp"

namespace vulcan::policy {
namespace {

// A miniature two-workload world: workload 0 is "LC-like" (modest heat),
// workload 1 is "BE-like" (scorching heat everywhere).
class PolicyWorld {
 public:
  static constexpr std::uint64_t kRss = 512;
  static constexpr std::uint64_t kFastCap = 512;  // half of combined RSS

  explicit PolicyWorld(const SystemPolicy& policy, std::uint64_t seed = 1)
      : topo_(make_topo()), rng_(seed) {
    for (unsigned w = 0; w < 2; ++w) {
      vm::AddressSpace::Config cfg;
      cfg.pid = w + 1;
      cfg.rss_pages = kRss;
      cfg.thp = false;
      as_.push_back(std::make_unique<vm::AddressSpace>(cfg, topo_));
      auto th = as_.back()->add_thread();
      // Everything starts in the slow tier.
      for (std::uint64_t p = 0; p < kRss; ++p) {
        as_.back()->fault(as_.back()->vpn_at(p), th, false, mem::kSlowTier);
      }
      trackers_.push_back(std::make_unique<prof::HeatTracker>(kRss));
      auto mig_cfg = policy.migrator_config();
      mig_cfg.process_cores = {static_cast<vm::CoreId>(2 * w),
                               static_cast<vm::CoreId>(2 * w + 1)};
      migrators_.push_back(std::make_unique<mig::Migrator>(
          *as_.back(), topo_, shootdowns_, cost_, mig_cfg));
      threads_.push_back(
          std::make_unique<mig::MigrationThread>(*migrators_.back()));
    }
  }

  std::vector<WorkloadView> views() {
    std::vector<WorkloadView> v;
    for (unsigned w = 0; w < 2; ++w) {
      WorkloadView view;
      view.index = w;
      view.as = as_[w].get();
      view.tracker = trackers_[w].get();
      view.migration = threads_[w].get();
      view.epoch_fast_accesses = epoch_fast_[w];
      view.epoch_slow_accesses = epoch_slow_[w];
      v.push_back(view);
    }
    return v;
  }

  /// Heat the first `hot` pages of workload `w` with weight `heat` each.
  void heat_pages(unsigned w, std::uint64_t hot, double heat,
                  bool writes = false) {
    for (std::uint64_t p = 0; p < hot; ++p) {
      trackers_[w]->record(p, writes, heat);
    }
  }
  void set_census(unsigned w, double fast, double slow) {
    epoch_fast_[w] = fast;
    epoch_slow_[w] = slow;
  }

  void run_migrations(std::uint64_t budget = 100'000) {
    for (auto& t : threads_) t->run_epoch(budget, rng_);
  }

  static mem::Topology make_topo() {
    std::vector<mem::TierConfig> tiers{
        {"fast", kFastCap, 70, 205.0},
        {"slow", 8192, 162, 25.0},
    };
    return mem::Topology(std::move(tiers));
  }

  mem::Topology topo_;
  sim::CostModel cost_;
  vm::Mmu mmu_{vm::Mmu::Config{.cores = 4}};
  vm::ShootdownController shootdowns_{cost_, mmu_};
  std::vector<std::unique_ptr<vm::AddressSpace>> as_;
  std::vector<std::unique_ptr<prof::HeatTracker>> trackers_;
  std::vector<std::unique_ptr<mig::Migrator>> migrators_;
  std::vector<std::unique_ptr<mig::MigrationThread>> threads_;
  double epoch_fast_[2] = {0, 0};
  double epoch_slow_[2] = {0, 0};
  sim::Rng rng_{7};
};

// ------------------------------------------------------------------- TPP

TEST(Tpp, PromotesTouchedSlowPagesSynchronously) {
  TppPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 10, 5000.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  ASSERT_EQ(world.threads_[0]->backlog(), 10u);
  const auto stats = world.threads_[0]->run_epoch(100, world.rng_);
  EXPECT_EQ(stats.migrated, 10u);
  EXPECT_GT(stats.stall_cycles, 0u) << "TPP promotion blocks the app";
  EXPECT_EQ(world.as_[0]->pages_in_tier(mem::kFastTier), 10u);
}

TEST(Tpp, IgnoresColdPages) {
  TppPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 10, 500.0);  // below promote_min_heat = 2000
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  EXPECT_EQ(world.threads_[0]->backlog(), 0u);
}

TEST(Tpp, FirstComeMonopolisation) {
  // The BE workload floods the fast tier first; TPP keeps serving it and
  // the LC latecomer finds the tier exhausted — the fairness gap Vulcan
  // targets.
  TppPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(1, PolicyWorld::kRss, 50'000.0);  // BE scorching everywhere
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  EXPECT_GE(world.as_[1]->pages_in_tier(mem::kFastTier),
            PolicyWorld::kFastCap * 9 / 10);
  // LC heats up later but the tier is full: promotions fail.
  world.heat_pages(0, 64, 10'000.0);
  views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  EXPECT_LT(world.as_[0]->pages_in_tier(mem::kFastTier), 64u);
}

TEST(Tpp, WatermarkDemotionRestoresHeadroom) {
  TppPolicy::Params params;
  params.low_watermark = 0.10;
  params.high_watermark = 0.20;
  TppPolicy policy(params);
  PolicyWorld world(policy);
  // Fill the fast tier completely with workload 1's pages.
  world.heat_pages(1, PolicyWorld::kRss, 50'000.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  ASSERT_TRUE(world.topo_.allocator(mem::kFastTier).below_watermark(0.10));
  // Cool everything; next epoch demotes down to the high watermark.
  for (auto& t : world.trackers_) {
    for (int e = 0; e < 20; ++e) t->decay_epoch();
  }
  views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  EXPECT_FALSE(world.topo_.allocator(mem::kFastTier).below_watermark(0.10));
}

// Plan one epoch of a watermark policy (low/high watermarks 0.10/0.20)
// over a full fast tier held half by each workload, every page cold, and
// return the demotions queued per workload.
template <typename Policy>
std::array<std::uint64_t, 2> cold_reclaim_split() {
  typename Policy::Params params;
  params.low_watermark = 0.10;
  params.high_watermark = 0.20;
  Policy policy(params);
  PolicyWorld world(policy);
  for (unsigned w = 0; w < 2; ++w) {
    for (std::uint64_t p = 0; p < PolicyWorld::kFastCap / 2; ++p) {
      auto frame = world.topo_.allocator(mem::kFastTier).allocate();
      EXPECT_TRUE(frame.has_value());
      const auto old = world.as_[w]->remap(world.as_[w]->vpn_at(p), *frame);
      world.topo_.allocator(mem::tier_of(old)).free(old);
    }
  }
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  return {world.threads_[0]->backlog(), world.threads_[1]->backlog()};
}

// TPP and Nomad share the watermark planner and differ in reclaim order:
// TPP's kswapd-style sweep takes one page per workload per pass, while
// Nomad drains workload 0's cold list before it looks at workload 1.
TEST(Tpp, ReclaimSweepsRoundRobinWhereNomadDrainsInOrder) {
  // The full tier must free its high watermark: 20% of 512 pages.
  const std::uint64_t need = PolicyWorld::kFastCap / 5;
  const auto tpp = cold_reclaim_split<TppPolicy>();
  EXPECT_EQ(tpp[0], need / 2);
  EXPECT_EQ(tpp[1], need / 2);
  const auto nomad = cold_reclaim_split<NomadPolicy>();
  EXPECT_EQ(nomad[0], need);
  EXPECT_EQ(nomad[1], 0u);
}

// ---------------------------------------------------------------- Memtis

TEST(Memtis, GlobalThresholdFavoursRawHeat) {
  MemtisPolicy policy;
  PolicyWorld world(policy);
  // BE pages are 10x hotter in absolute terms.
  world.heat_pages(0, 256, 2.0);
  world.heat_pages(1, 512, 20.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  // Fast tier (512) goes to the BE workload almost entirely.
  EXPECT_GE(world.as_[1]->pages_in_tier(mem::kFastTier), 450u);
  EXPECT_LE(world.as_[0]->pages_in_tier(mem::kFastTier), 62u);
  EXPECT_GE(policy.last_threshold(), 2.0)
      << "LC heat sits below the global hot threshold: the cold page dilemma";
}

TEST(Memtis, DemotesPagesBelowThreshold) {
  MemtisPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 256, 2.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.run_migrations();
  ASSERT_GT(world.as_[0]->pages_in_tier(mem::kFastTier), 0u);
  // The other workload now burns far hotter; LC pages fall below the new
  // global threshold and demote.
  world.heat_pages(1, 512, 50.0);
  for (int i = 0; i < 3; ++i) {
    views = world.views();
    policy.plan_epoch(views, world.topo_, world.rng_);
    world.run_migrations();
  }
  EXPECT_LT(world.as_[0]->pages_in_tier(mem::kFastTier), 64u)
      << "formerly-hot LC pages downgraded to cold";
}

TEST(Memtis, MigrationsAreAsync) {
  MemtisPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 16, 5.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  const auto stats = world.threads_[0]->run_epoch(100, world.rng_);
  EXPECT_EQ(stats.stall_cycles, 0u);
  EXPECT_GT(stats.daemon_cycles, 0u);
}

TEST(Memtis, WriteHotPagesCopyAsync) {
  // MTM, Memtis's threshold twin, copies write-hot pages synchronously
  // (Mtm.WriteIntensityPicksCopyMode); Memtis never blocks the app.
  MemtisPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 16, 5.0, /*writes=*/true);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  ASSERT_EQ(world.threads_[0]->backlog(), 16u);
  const auto stats = world.threads_[0]->run_epoch(100, world.rng_);
  EXPECT_EQ(stats.stall_cycles, 0u);
  EXPECT_GT(stats.daemon_cycles, 0u);
}

// ----------------------------------------------------------------- Nomad

TEST(Nomad, ConfiguresTransactionalShadowedMigration) {
  NomadPolicy policy;
  const auto cfg = policy.migrator_config();
  EXPECT_TRUE(cfg.shadowing);
  EXPECT_EQ(cfg.async_max_retries, 1u) << "abort on first conflicting write";
  EXPECT_FALSE(cfg.mechanism.optimized_prep);
  EXPECT_FALSE(cfg.mechanism.targeted_shootdown);
}

TEST(Nomad, PromotionsNeverStall) {
  NomadPolicy policy;
  PolicyWorld world(policy);
  world.heat_pages(0, 32, 5000.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  const auto stats = world.threads_[0]->run_epoch(100, world.rng_);
  EXPECT_EQ(stats.stall_cycles, 0u) << "transactional migration is async";
  EXPECT_GT(stats.migrated, 0u);
}

// ---------------------------------------------------------------- Vulcan

TEST(VulcanManager, QuotasRoughlyEqualiseUnderContention) {
  // The mini world's active sets are tiny in paper-world GiB, so Eq. 3's
  // log^2(RSS) factor is weak; raise the gain to paper-scale strength.
  core::VulcanManager::Params p;
  p.demand_gain = 30.0;
  core::VulcanManager policy(p);
  PolicyWorld world(policy);
  world.heat_pages(0, 400, 5.0);
  world.heat_pages(1, 512, 50.0);
  world.set_census(0, 100, 900);   // both miss their targets
  world.set_census(1, 100, 4000);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  const auto managed = static_cast<std::uint64_t>(
      0.96 * PolicyWorld::kFastCap);
  // Both demand everything: each ends near its guaranteed share.
  EXPECT_NEAR(static_cast<double>(views[0].fast_quota), managed / 2.0,
              managed * 0.15);
  EXPECT_NEAR(static_cast<double>(views[1].fast_quota), managed / 2.0,
              managed * 0.15);
}

TEST(VulcanManager, OverQuotaWorkloadDemotes) {
  core::VulcanManager policy;
  PolicyWorld world(policy);
  // Give workload 1 the whole fast tier up front.
  {
    auto views = world.views();
    sim::Rng rng(3);
    for (std::uint64_t p = 0; p < PolicyWorld::kFastCap; ++p) {
      auto frame = world.topo_.allocator(mem::kFastTier).allocate();
      ASSERT_TRUE(frame.has_value());
      const auto old = world.as_[1]->remap(world.as_[1]->vpn_at(p), *frame);
      world.topo_.allocator(mem::tier_of(old)).free(old);
    }
  }
  world.heat_pages(0, 400, 5.0);
  world.set_census(0, 0, 1000);
  world.set_census(1, 4000, 0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  EXPECT_GT(world.threads_[1]->backlog(), 0u)
      << "over-quota workload must shed pages";
  world.run_migrations();
  EXPECT_LE(world.as_[1]->pages_in_tier(mem::kFastTier),
            views[1].fast_quota + 8);
}

TEST(VulcanManager, PlacementRespectsQuota) {
  core::VulcanManager policy;
  PolicyWorld world(policy);
  auto views = world.views();
  views[0].fast_quota = 0;
  EXPECT_EQ(policy.placement_tier(views[0], world.topo_), mem::kSlowTier);
  views[0].fast_quota = UINT64_MAX;
  EXPECT_EQ(policy.placement_tier(views[0], world.topo_), mem::kFastTier);
}

TEST(VulcanManager, MechanismFullyOptimised) {
  core::VulcanManager policy;
  const auto cfg = policy.migrator_config();
  EXPECT_TRUE(cfg.mechanism.optimized_prep);
  EXPECT_TRUE(cfg.mechanism.targeted_shootdown);
  EXPECT_TRUE(cfg.shadowing);
}

TEST(VulcanManager, AblationSwitchesPropagate) {
  core::VulcanManager::Params p;
  p.enable_opt_prep = false;
  p.enable_replication = false;
  p.enable_shadowing = false;
  core::VulcanManager policy(p);
  const auto cfg = policy.migrator_config();
  EXPECT_FALSE(cfg.mechanism.optimized_prep);
  EXPECT_FALSE(cfg.mechanism.targeted_shootdown);
  EXPECT_FALSE(cfg.shadowing);
}

TEST(VulcanManager, QosSnapshotTracksFthr) {
  core::VulcanManager policy;
  PolicyWorld world(policy);
  world.set_census(0, 900, 100);
  world.set_census(1, 100, 900);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  ASSERT_EQ(policy.qos().size(), 2u);
  EXPECT_NEAR(policy.qos()[0].fthr, 0.9, 1e-9);
  EXPECT_NEAR(policy.qos()[1].fthr, 0.1, 1e-9);
  EXPECT_GT(policy.qos()[0].gpt, 0.0);
}

}  // namespace
}  // namespace vulcan::policy
