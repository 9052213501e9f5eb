#include <gtest/gtest.h>

#include "policy/threshold.hpp"
#include "vm/mmu.hpp"

namespace vulcan::policy {
namespace {

// Reuse the miniature world from the baselines test, locally.
class MtmWorld {
 public:
  static constexpr std::uint64_t kRss = 512;

  explicit MtmWorld(const SystemPolicy& policy) : topo_(make_topo()) {
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = kRss;
    cfg.thp = false;
    as_ = std::make_unique<vm::AddressSpace>(cfg, topo_);
    const auto th = as_->add_thread();
    for (std::uint64_t p = 0; p < kRss; ++p) {
      as_->fault(as_->vpn_at(p), th, false, mem::kSlowTier);
    }
    tracker_ = std::make_unique<prof::HeatTracker>(kRss);
    auto mig_cfg = policy.migrator_config();
    mig_cfg.process_cores = {0, 1};
    migrator_ = std::make_unique<mig::Migrator>(*as_, topo_, shootdowns_,
                                                cost_, mig_cfg);
    thread_ = std::make_unique<mig::MigrationThread>(*migrator_);
  }

  std::vector<WorkloadView> views() {
    WorkloadView v;
    v.index = 0;
    v.as = as_.get();
    v.tracker = tracker_.get();
    v.migration = thread_.get();
    return {v};
  }

  static mem::Topology make_topo() {
    std::vector<mem::TierConfig> tiers{{"fast", 512, 70, 205.0},
                                       {"slow", 4096, 162, 25.0}};
    return mem::Topology(std::move(tiers));
  }

  mem::Topology topo_;
  sim::CostModel cost_;
  vm::Mmu mmu_{vm::Mmu::Config{.cores = 2}};
  vm::ShootdownController shootdowns_{cost_, mmu_};
  std::unique_ptr<vm::AddressSpace> as_;
  std::unique_ptr<prof::HeatTracker> tracker_;
  std::unique_ptr<mig::Migrator> migrator_;
  std::unique_ptr<mig::MigrationThread> thread_;
  sim::Rng rng_{5};
};

TEST(Mtm, WriteIntensityPicksCopyMode) {
  MtmPolicy policy;
  MtmWorld world(policy);
  // Page 0: read-hot. Page 1: write-hot. Equal total heat.
  for (int i = 0; i < 10; ++i) world.tracker_->record(0, false, 100.0);
  for (int i = 0; i < 10; ++i) world.tracker_->record(1, true, 100.0);
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  ASSERT_EQ(world.thread_->backlog(), 2u);
  const auto stats = world.thread_->run_epoch(10, world.rng_);
  EXPECT_EQ(stats.migrated, 2u);
  EXPECT_GT(stats.stall_cycles, 0u) << "write-hot page copied synchronously";
  EXPECT_GT(stats.daemon_cycles, 0u) << "read-hot page copied async";
}

TEST(Mtm, NoOwnershipAwareness) {
  MtmPolicy policy;
  const auto cfg = policy.migrator_config();
  EXPECT_FALSE(cfg.mechanism.targeted_shootdown)
      << "MTM lacks per-thread tables: broadcast shootdowns";
  EXPECT_FALSE(cfg.shadowing);
}

TEST(Mtm, SharesMemtisThresholdBehaviour) {
  MtmPolicy mtm;
  MemtisPolicy memtis;
  MtmWorld a(mtm), b(memtis);
  for (std::uint64_t p = 0; p < 256; ++p) {
    a.tracker_->record(p, false, 10.0 + double(p));
    b.tracker_->record(p, false, 10.0 + double(p));
  }
  auto va = a.views();
  auto vb = b.views();
  mtm.plan_epoch(va, a.topo_, a.rng_);
  memtis.plan_epoch(vb, b.topo_, b.rng_);
  EXPECT_DOUBLE_EQ(mtm.last_threshold(), memtis.last_threshold());
  EXPECT_EQ(a.thread_->backlog(), b.thread_->backlog());
}

TEST(Mtm, DemotesColdFastPages) {
  MtmPolicy policy;
  MtmWorld world(policy);
  // Move page 7 to fast, then make everything else much hotter than the
  // capacity threshold while page 7 stays cold.
  auto frame = world.topo_.allocator(mem::kFastTier).allocate();
  ASSERT_TRUE(frame.has_value());
  const auto old = world.as_->remap(world.as_->vpn_at(7), *frame);
  world.topo_.allocator(mem::tier_of(old)).free(old);
  for (std::uint64_t p = 100; p < 512; ++p) {
    world.tracker_->record(p, false, 1000.0);
  }
  // 412 hot pages + capacity 512: threshold stays tiny unless population
  // exceeds capacity; add another workload's worth of heat — here simply
  // heat more pages than capacity.
  for (std::uint64_t p = 0; p < 100; ++p) {
    if (p != 7) world.tracker_->record(p, false, 900.0);
  }
  auto views = world.views();
  policy.plan_epoch(views, world.topo_, world.rng_);
  world.thread_->run_epoch(100'000, world.rng_);
  EXPECT_EQ(mem::tier_of(world.as_->tables().get(world.as_->vpn_at(7)).pfn()),
            mem::kSlowTier)
      << "cold page demoted below the global threshold";
}

}  // namespace
}  // namespace vulcan::policy
