#include "mig/migrator.hpp"

#include <gtest/gtest.h>

#include "mig/migration_thread.hpp"
#include "vm/mmu.hpp"

namespace vulcan::mig {
namespace {

class MigratorTest : public ::testing::Test {
 protected:
  MigratorTest()
      : topo_(make_topo()),
        as_(make_as_config(), topo_),
        mmu_(vm::Mmu::Config{.cores = 8}),
        shootdowns_(cost_, mmu_),
        rng_(7) {
    thread_ = as_.add_thread();
    as_.add_thread();
    // Fault everything into the slow tier.
    for (std::uint64_t i = 0; i < kPages; ++i) {
      as_.fault(as_.vpn_at(i), thread_, false, mem::kSlowTier);
    }
  }

  static constexpr std::uint64_t kPages = 256;

  static mem::Topology make_topo() {
    std::vector<mem::TierConfig> tiers{
        {"fast", 1024, 70, 205.0},
        {"slow", 4096, 162, 25.0},
    };
    return mem::Topology(std::move(tiers));
  }
  static vm::AddressSpace::Config make_as_config() {
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = kPages;
    cfg.thp = false;
    return cfg;
  }

  Migrator make_migrator(Migrator::Config cfg = {}) {
    if (cfg.process_cores.empty()) cfg.process_cores = {1, 2};
    cfg.daemon_core = 0;
    return Migrator(as_, topo_, shootdowns_, cost_, cfg);
  }

  MigrationRequest promote(std::uint64_t page,
                           CopyMode mode = CopyMode::kSync) {
    return {.vpn = as_.vpn_at(page), .to = mem::kFastTier, .mode = mode,
            .shared = false, .owner = thread_};
  }
  MigrationRequest demote(std::uint64_t page) {
    return {.vpn = as_.vpn_at(page), .to = mem::kSlowTier,
            .mode = CopyMode::kAsync, .shared = false, .owner = thread_};
  }

  sim::CostModel cost_;
  mem::Topology topo_;
  vm::AddressSpace as_;
  vm::Mmu mmu_;
  std::vector<vm::Tlb>& tlbs_ = mmu_.tlbs();
  vm::ShootdownController shootdowns_;
  sim::Rng rng_;
  vm::ThreadId thread_ = 0;
};

TEST_F(MigratorTest, SyncPromotionMovesPageAndStalls) {
  auto m = make_migrator();
  const auto req = promote(0);
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_GT(stats.stall_cycles, 0u);
  EXPECT_EQ(stats.daemon_cycles, 0u);
  EXPECT_EQ(mem::tier_of(as_.tables().get(req.vpn).pfn()), mem::kFastTier);
  EXPECT_EQ(as_.pages_in_tier(mem::kFastTier), 1u);
}

TEST_F(MigratorTest, AsyncPromotionChargesDaemon) {
  auto m = make_migrator();
  const auto req = promote(1, CopyMode::kAsync);
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_EQ(stats.stall_cycles, 0u);
  EXPECT_GT(stats.daemon_cycles, 0u);
}

TEST_F(MigratorTest, AlreadyResidentIsNoop) {
  auto m = make_migrator();
  const MigrationRequest req{.vpn = as_.vpn_at(2), .to = mem::kSlowTier};
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 0u);
}

TEST_F(MigratorTest, UnmappedPageIsSkipped) {
  auto m = make_migrator();
  vm::AddressSpace::Config cfg;  // separate space with unmapped vpns
  const MigrationRequest req{.vpn = as_.vpn_at(kPages + 500),
                             .to = mem::kFastTier};
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 0u);
}

TEST_F(MigratorTest, WriteIntensiveAsyncCanFail) {
  Migrator::Config cfg;
  cfg.async_max_retries = 1;
  auto m = make_migrator(cfg);
  std::vector<MigrationRequest> reqs;
  for (std::uint64_t p = 0; p < 200; ++p) {
    auto r = promote(p, CopyMode::kAsync);
    r.write_intensive = true;
    reqs.push_back(r);
  }
  const auto stats = m.execute(reqs, rng_);
  EXPECT_GT(stats.failed, 0u) << "write-hot async promotions abort sometimes";
  EXPECT_GT(stats.migrated, 0u);
  EXPECT_EQ(stats.migrated + stats.failed, stats.attempted);
  // Failed migrations must not leak fast-tier frames.
  EXPECT_EQ(topo_.allocator(mem::kFastTier).used(),
            as_.pages_in_tier(mem::kFastTier));
}

TEST_F(MigratorTest, ShadowingMakesCleanDemotionFree) {
  Migrator::Config cfg;
  cfg.shadowing = true;
  auto m = make_migrator(cfg);
  const auto up = promote(3);
  m.execute({&up, 1}, rng_);
  EXPECT_TRUE(m.shadows().has(as_.vpn_at(3)));
  const std::uint64_t slow_used_before = topo_.allocator(mem::kSlowTier).used();

  const auto down = demote(3);
  const auto stats = m.execute({&down, 1}, rng_);
  EXPECT_EQ(stats.shadow_remaps, 1u);
  EXPECT_EQ(stats.bytes_copied, 0u) << "remap demotion copies nothing";
  EXPECT_EQ(mem::tier_of(as_.tables().get(as_.vpn_at(3)).pfn()),
            mem::kSlowTier);
  EXPECT_EQ(topo_.allocator(mem::kSlowTier).used(), slow_used_before);
  EXPECT_EQ(topo_.allocator(mem::kFastTier).used(), 0u);
}

TEST_F(MigratorTest, WriteInvalidatesShadow) {
  Migrator::Config cfg;
  cfg.shadowing = true;
  auto m = make_migrator(cfg);
  const auto up = promote(4);
  m.execute({&up, 1}, rng_);
  ASSERT_TRUE(m.shadows().has(as_.vpn_at(4)));
  as_.access(as_.vpn_at(4), thread_, /*write=*/true);
  m.on_write(as_.vpn_at(4));
  EXPECT_FALSE(m.shadows().has(as_.vpn_at(4)));
  // Dirty page now demotes by copying, not by remap.
  const auto down = demote(4);
  const auto stats = m.execute({&down, 1}, rng_);
  EXPECT_EQ(stats.shadow_remaps, 0u);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_GT(stats.bytes_copied, 0u);
}

TEST_F(MigratorTest, BatchedWriteInvalidatesShadowInStreamOrder) {
  // Regression: under the batched vm::Mmu hot path, a write in the same
  // translate_batch as later accesses must invalidate the shadow copy *in
  // stream order* via the AccessHook — exactly as the single-event
  // pipeline interleaved it — or a subsequent demotion remaps to a stale
  // shadow of a page that has since diverged.
  Migrator::Config cfg;
  cfg.shadowing = true;
  auto m = make_migrator(cfg);
  const auto up = promote(8);
  m.execute({&up, 1}, rng_);
  ASSERT_TRUE(m.shadows().has(as_.vpn_at(8)));

  vm::Mmu::Config mmu_cfg;
  mmu_cfg.cores = 8;
  vm::Mmu mmu(mmu_cfg);
  const vm::Vpn vpn = as_.vpn_at(8);
  const std::vector<vm::Mmu::Access> batch = {
      {.vpn = vpn, .core = 1, .thread = thread_, .is_write = false},
      {.vpn = vpn, .core = 1, .thread = thread_, .is_write = true},
      {.vpn = vpn, .core = 1, .thread = thread_, .is_write = false},
  };
  std::vector<bool> shadow_after_hook;
  std::vector<vm::Mmu::Translation> out;
  mmu.translate_batch(
      as_, batch, [](vm::Vpn) { return mem::kSlowTier; }, out,
      [&](const vm::Mmu::Access& a, const vm::Mmu::Translation&) {
        // The engine's write-detection hook (runtime/system.cpp).
        if (a.is_write) m.on_write(a.vpn);
        shadow_after_hook.push_back(m.shadows().has(a.vpn));
      });
  ASSERT_EQ(shadow_after_hook.size(), 3u) << "hook runs once per access";
  EXPECT_TRUE(shadow_after_hook[0]) << "read before the write: shadow live";
  EXPECT_FALSE(shadow_after_hook[1])
      << "shadow dropped inside the batch, not after it";
  EXPECT_FALSE(shadow_after_hook[2]);

  // The dirtied page must now demote by copying, never by stale remap.
  const auto down = demote(8);
  const auto stats = m.execute({&down, 1}, rng_);
  EXPECT_EQ(stats.shadow_remaps, 0u);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_GT(stats.bytes_copied, 0u);
}

TEST_F(MigratorTest, NoShadowingFreesOldFrame) {
  auto m = make_migrator();  // shadowing off
  const std::uint64_t slow_before = topo_.allocator(mem::kSlowTier).used();
  const auto up = promote(5);
  m.execute({&up, 1}, rng_);
  EXPECT_EQ(topo_.allocator(mem::kSlowTier).used(), slow_before - 1);
  EXPECT_FALSE(m.shadows().has(as_.vpn_at(5)));
}

TEST_F(MigratorTest, TargetedShootdownSparesUninvolvedCores) {
  // Preload TLBs on every core.
  for (auto& tlb : tlbs_) tlb.insert(1, as_.vpn_at(6));
  Migrator::Config cfg;
  cfg.mechanism.targeted_shootdown = true;
  cfg.process_cores = {1, 2, 3, 4};
  auto m = make_migrator(cfg);
  auto req = promote(6, CopyMode::kAsync);  // private to thread_ (core 1... )
  req.shared = false;
  req.owner = thread_;
  m.execute({&req, 1}, rng_);
  const vm::CoreId owner_core = m.core_of(thread_);
  EXPECT_FALSE(tlbs_[owner_core].lookup(1, as_.vpn_at(6)));
  // A process core that is NOT the owner keeps its (stale-free by
  // ownership proof) entry untouched.
  unsigned untouched = 0;
  for (const vm::CoreId c : {1, 2, 3, 4}) {
    if (c != owner_core && c != cfg.daemon_core) {
      untouched += tlbs_[c].lookup(1, as_.vpn_at(6));
    }
  }
  EXPECT_GT(untouched, 0u);
}

TEST_F(MigratorTest, BroadcastShootdownHitsAllProcessCores) {
  for (auto& tlb : tlbs_) tlb.insert(1, as_.vpn_at(7));
  Migrator::Config cfg;
  cfg.mechanism.targeted_shootdown = false;
  cfg.process_cores = {1, 2, 3, 4};
  auto m = make_migrator(cfg);
  const auto req = promote(7, CopyMode::kAsync);
  m.execute({&req, 1}, rng_);
  for (const vm::CoreId c : {1, 2, 3, 4}) {
    EXPECT_FALSE(tlbs_[c].lookup(1, as_.vpn_at(7))) << "core " << c;
  }
  EXPECT_TRUE(tlbs_[5].lookup(1, as_.vpn_at(7))) << "foreign core spared";
}

TEST_F(MigratorTest, PrepPaidOncePerBatchPerContext) {
  auto m = make_migrator();
  std::vector<MigrationRequest> reqs;
  for (std::uint64_t p = 10; p < 20; ++p) reqs.push_back(promote(p));
  const auto stats = m.execute(reqs, rng_);
  const sim::Cycles prep = m.mechanism().prep_cost();
  // Stall contains exactly one prep plus per-page work.
  EXPECT_GE(stats.stall_cycles, prep);
  EXPECT_LT(stats.stall_cycles, 2 * prep + 10 * 200'000);
  EXPECT_EQ(stats.daemon_cycles, 0u);
}

TEST_F(MigratorTest, AdmissionPredictsWhatAPageMoveCharges) {
  // A sync promotion from core 1 (the owner's core) flushes core 2.
  auto m = make_migrator();
  const auto req = promote(20);
  const auto stats = m.execute({&req, 1}, rng_);
  ASSERT_EQ(stats.migrated, 1u);
  ASSERT_EQ(stats.shootdown_ipis, 1u);
  const AdmissionController admission({}, cost_.params());
  EXPECT_EQ(stats.stall_cycles - m.mechanism().prep_cost(),
            admission.predict_cost(
                {.promotion = true, .pages = 1, .predicted_ipis = 1}));
}

TEST_F(MigratorTest, MigrationThreadRespectsBudget) {
  auto m = make_migrator();
  MigrationThread mt(m);
  for (std::uint64_t p = 30; p < 60; ++p) {
    mt.enqueue(promote(p, CopyMode::kAsync));
  }
  EXPECT_EQ(mt.backlog(), 30u);
  const auto stats = mt.run_epoch(/*page_budget=*/10, rng_);
  EXPECT_EQ(stats.attempted, 10u);
  EXPECT_EQ(mt.backlog(), 20u);
  mt.run_epoch(100, rng_);
  EXPECT_EQ(mt.backlog(), 0u);
}

TEST_F(MigratorTest, UrgentRequestsJumpTheQueue) {
  auto m = make_migrator();
  MigrationThread mt(m);
  mt.enqueue(promote(40, CopyMode::kAsync));
  mt.enqueue_urgent(promote(41, CopyMode::kAsync));
  mt.run_epoch(1, rng_);
  EXPECT_EQ(mem::tier_of(as_.tables().get(as_.vpn_at(41)).pfn()),
            mem::kFastTier)
      << "urgent request executed first";
  EXPECT_EQ(mem::tier_of(as_.tables().get(as_.vpn_at(40)).pfn()),
            mem::kSlowTier);
}

TEST_F(MigratorTest, HugePageSplitBeforeMigration) {
  // Build a THP-backed space.
  vm::AddressSpace::Config cfg;
  cfg.pid = 2;
  cfg.rss_pages = 512;
  cfg.thp = true;
  vm::AddressSpace thp_as(cfg, topo_);
  const auto th = thp_as.add_thread();
  thp_as.fault(thp_as.vpn_at(0), th, false, mem::kSlowTier);
  ASSERT_TRUE(thp_as.is_huge(thp_as.vpn_at(9)));

  Migrator::Config thp_cfg;
  thp_cfg.process_cores = {1};
  thp_cfg.daemon_core = 0;
  Migrator m(thp_as, topo_, shootdowns_, cost_, thp_cfg);
  const MigrationRequest req{.vpn = thp_as.vpn_at(9), .to = mem::kFastTier,
                             .mode = CopyMode::kSync, .shared = false,
                             .owner = th};
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_FALSE(thp_as.is_huge(thp_as.vpn_at(9))) << "chunk split on promote";
  EXPECT_EQ(mem::tier_of(thp_as.tables().get(thp_as.vpn_at(9)).pfn()),
            mem::kFastTier);
}

}  // namespace
}  // namespace vulcan::mig
