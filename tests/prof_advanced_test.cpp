// Tests for the advanced profilers: Telescope (hierarchical PT profiling)
// and Chrono (idle-time hotness measurement).
#include <gtest/gtest.h>

#include "prof/chrono.hpp"
#include "prof/telescope.hpp"

namespace vulcan::prof {
namespace {

class AdvancedProfilerTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPages = 4096;  // 8 x 2MB regions

  AdvancedProfilerTest() : topo_(make_topo()), as_(as_config(), topo_) {
    thread_ = as_.add_thread();
    for (std::uint64_t p = 0; p < kPages; ++p) {
      as_.fault(as_.vpn_at(p), thread_, false, mem::kFastTier);
      as_.clear_accessed(as_.vpn_at(p));
    }
    // Faulting sets region flags; reset so tests start idle.
    as_.tables().process_table().visit_leaves(
        [](vm::Vpn, vm::LeafTable& leaf) { leaf.clear_region_accessed(); });
  }

  static mem::Topology make_topo() {
    std::vector<mem::TierConfig> tiers{
        {"fast", 8192, 70, 205.0},
        {"slow", 16384, 162, 25.0},
    };
    return mem::Topology(std::move(tiers));
  }
  static vm::AddressSpace::Config as_config() {
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = kPages;
    cfg.thp = false;
    return cfg;
  }

  void touch(std::uint64_t page, bool write = false) {
    as_.access(as_.vpn_at(page), thread_, write);
  }

  mem::Topology topo_;
  vm::AddressSpace as_;
  vm::ThreadId thread_ = 0;
};

// ------------------------------------------------------------- Telescope

TEST_F(AdvancedProfilerTest, TelescopeSkipsIdleRegions) {
  HeatTracker t(kPages);
  TelescopeProfiler prof(t);
  // Touch pages only in region 0 (pages 0..511) and region 3.
  touch(5);
  touch(3 * 512 + 7);
  prof.on_epoch(as_);
  EXPECT_EQ(prof.last_regions_total(), 8u);
  EXPECT_EQ(prof.last_regions_descended(), 2u);
  EXPECT_GT(t.heat(5), 0.0);
  EXPECT_GT(t.heat(3 * 512 + 7), 0.0);
  EXPECT_DOUBLE_EQ(t.heat(512), 0.0);
}

TEST_F(AdvancedProfilerTest, TelescopeCostReflectsSkipping) {
  HeatTracker t(kPages);
  TelescopeProfiler prof(t, 1.0, /*per_region=*/40, /*per_pte=*/30);
  touch(0);
  const auto cost_one_hot = prof.on_epoch(as_);
  // One descended region: 8 region checks + 512 PTE reads.
  EXPECT_EQ(cost_one_hot, 8u * 40u + 512u * 30u);
  // All idle now: cost collapses to region checks only.
  const auto cost_idle = prof.on_epoch(as_);
  EXPECT_EQ(cost_idle, 8u * 40u);
}

TEST_F(AdvancedProfilerTest, TelescopeMatchesFullScanOnHotRegions) {
  HeatTracker tele_t(kPages), full_t(kPages);
  TelescopeProfiler tele(tele_t);
  // Touch a spread of pages within one region.
  for (std::uint64_t p = 0; p < 512; p += 17) touch(p, p % 3 == 0);
  tele.on_epoch(as_);
  for (std::uint64_t p = 0; p < 512; p += 17) {
    EXPECT_GT(tele_t.heat(p), 0.0) << p;
  }
  EXPECT_DOUBLE_EQ(tele_t.heat(1), 0.0);
}

TEST_F(AdvancedProfilerTest, TelescopeSeesReaccessedRegionNextEpoch) {
  HeatTracker t(kPages);
  TelescopeProfiler prof(t);
  touch(100);
  prof.on_epoch(as_);
  prof.on_epoch(as_);          // idle epoch
  touch(100);                  // region becomes hot again
  prof.on_epoch(as_);
  EXPECT_EQ(prof.last_regions_descended(), 1u);
  EXPECT_GT(t.heat(100), 1.0);
}

// ---------------------------------------------------------------- Chrono

TEST_F(AdvancedProfilerTest, ChronoWeightsByIdleTime) {
  HeatTracker t(kPages);
  ChronoProfiler prof(t);
  // Page 1 touched every epoch; page 2 touched every 4th epoch.
  for (int e = 1; e <= 8; ++e) {
    touch(1);
    if (e % 4 == 0) touch(2);
    prof.on_epoch(as_);
  }
  // Both pages show the same number of A-bit observations per their
  // touches, but Chrono's idle weighting separates their rates ~4x.
  EXPECT_GT(t.heat(1), 3.0 * t.heat(2));
  EXPECT_GT(t.heat(2), 0.0);
}

TEST_F(AdvancedProfilerTest, PlainScanCannotSeparateWhatChronoCan) {
  // Control: a plain A-bit scan gives one unit per observation, so a page
  // seen in 2 of 8 epochs gets exactly 1/4 the heat of an every-epoch
  // page under zero decay — Chrono additionally divides by idle time,
  // amplifying the gap.
  HeatTracker chrono_t(kPages, /*decay=*/1.0);
  ChronoProfiler chrono(chrono_t);
  for (int e = 1; e <= 8; ++e) {
    touch(1);
    if (e % 4 == 0) touch(2);
    chrono.on_epoch(as_);
  }
  const double ratio = chrono_t.heat(1) / chrono_t.heat(2);
  EXPECT_GT(ratio, 8.0) << "idle weighting beats raw observation counts";
}

TEST_F(AdvancedProfilerTest, ChronoIdleEpochsTracked) {
  HeatTracker t(kPages);
  ChronoProfiler prof(t);
  touch(7);
  prof.on_epoch(as_);
  EXPECT_EQ(prof.idle_epochs(7), 0u);
  prof.on_epoch(as_);
  prof.on_epoch(as_);
  EXPECT_EQ(prof.idle_epochs(7), 2u);
  EXPECT_EQ(prof.idle_epochs(8), 0u) << "never-seen pages report 0";
}

TEST_F(AdvancedProfilerTest, ChronoFirstSightingUsesUnitIdle) {
  HeatTracker t(kPages);
  ChronoProfiler prof(t, /*scan_weight=*/10.0);
  touch(9);
  prof.on_epoch(as_);
  EXPECT_DOUBLE_EQ(t.heat(9), 10.0) << "first observation: idle = 1 epoch";
}

TEST_F(AdvancedProfilerTest, BothClearAccessedBits) {
  HeatTracker t1(kPages), t2(kPages);
  TelescopeProfiler tele(t1);
  ChronoProfiler chrono(t2);
  touch(11);
  tele.on_epoch(as_);
  EXPECT_FALSE(as_.tables().get(as_.vpn_at(11)).accessed());
  touch(12);
  chrono.on_epoch(as_);
  EXPECT_FALSE(as_.tables().get(as_.vpn_at(12)).accessed());
}

}  // namespace
}  // namespace vulcan::prof
