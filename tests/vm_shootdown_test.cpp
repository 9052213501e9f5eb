#include "vm/shootdown.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "vm/mmu.hpp"

namespace vulcan::vm {
namespace {

class ShootdownTest : public ::testing::Test {
 protected:
  ShootdownTest() {
    for (CoreId c = 0; c < 4; ++c) tlbs_[c].insert(1, 100);
  }

  sim::CostModel cost_;
  Mmu mmu_{Mmu::Config{.cores = 4}};
  std::vector<Tlb>& tlbs_ = mmu_.tlbs();
  ShootdownController ctrl_{cost_, mmu_};
};

TEST_F(ShootdownTest, SingleInvalidatesInitiatorAndTargets) {
  const std::array<CoreId, 2> targets{1, 2};
  ctrl_.shoot_single(0, targets, 1, 100);
  EXPECT_FALSE(tlbs_[0].lookup(1, 100));  // initiator flushes locally
  EXPECT_FALSE(tlbs_[1].lookup(1, 100));
  EXPECT_FALSE(tlbs_[2].lookup(1, 100));
  EXPECT_TRUE(tlbs_[3].lookup(1, 100)) << "non-target core must keep entry";
}

TEST_F(ShootdownTest, CostMatchesColdModel) {
  const std::array<CoreId, 3> targets{1, 2, 3};
  const auto cost = ctrl_.shoot_single(0, targets, 1, 100);
  EXPECT_EQ(cost, cost_.shootdown_cold(3));
}

TEST_F(ShootdownTest, LocalOnlyIsCheapAndCountsAsLocal) {
  const auto cost = ctrl_.shoot_single(0, {}, 1, 100);
  EXPECT_EQ(cost, cost_.shootdown_cold(0));
  EXPECT_EQ(ctrl_.stats().local_only, 1u);
  EXPECT_EQ(ctrl_.stats().ipis, 0u);
  EXPECT_FALSE(tlbs_[0].lookup(1, 100));
  EXPECT_TRUE(tlbs_[1].lookup(1, 100));
}

TEST_F(ShootdownTest, TargetedIsNeverCostlierThanBroadcast) {
  const std::array<CoreId, 1> owner{2};
  const std::array<CoreId, 3> everyone{1, 2, 3};
  const auto targeted = ctrl_.shoot_single(0, owner, 1, 100);
  const auto broadcast = ctrl_.shoot_single(0, everyone, 1, 100);
  EXPECT_LT(targeted, broadcast);
}

TEST_F(ShootdownTest, BatchInvalidatesAllPages) {
  for (CoreId c = 0; c < 4; ++c) {
    tlbs_[c].insert(1, 200);
    tlbs_[c].insert(1, 300);
  }
  const std::array<CoreId, 2> targets{1, 3};
  const std::array<Vpn, 3> pages{100, 200, 300};
  ctrl_.shoot_batch(0, targets, 1, pages);
  for (const Vpn v : pages) {
    EXPECT_FALSE(tlbs_[0].lookup(1, v));
    EXPECT_FALSE(tlbs_[1].lookup(1, v));
    EXPECT_TRUE(tlbs_[2].lookup(1, v));
    EXPECT_FALSE(tlbs_[3].lookup(1, v));
  }
}

TEST_F(ShootdownTest, StatsAccumulate) {
  const std::array<CoreId, 2> targets{1, 2};
  ctrl_.shoot_single(0, targets, 1, 100);
  const std::array<Vpn, 2> pages{100, 200};
  ctrl_.shoot_batch(3, targets, 1, pages);
  EXPECT_EQ(ctrl_.stats().shootdowns, 2u);
  EXPECT_EQ(ctrl_.stats().ipis, 4u);
  EXPECT_GT(ctrl_.stats().cycles, 0u);
  ctrl_.reset_stats();
  EXPECT_EQ(ctrl_.stats().shootdowns, 0u);
}

TEST(ShootdownNoTlbs, PureCostStudyWorks) {
  // Nothing cached anywhere: the controller still charges the cold cost.
  sim::CostModel cost;
  Mmu mmu(Mmu::Config{});
  ShootdownController ctrl(cost, mmu);
  const std::array<CoreId, 31> targets{};
  const auto c = ctrl.shoot_single(0, targets, 1, 1);
  EXPECT_EQ(c, cost.shootdown_cold(31));
}

}  // namespace
}  // namespace vulcan::vm
