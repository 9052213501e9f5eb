#include "policy/biased.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "sim/rng.hpp"

namespace vulcan::policy {
namespace {

mig::MigrationRequest req(vm::Vpn vpn, bool shared, bool write_intensive,
                          double heat = 1.0) {
  mig::MigrationRequest r;
  r.vpn = vpn;
  r.to = mem::kFastTier;
  r.shared = shared;
  r.write_intensive = write_intensive;
  r.heat = heat;
  return r;
}

TEST(BiasedQueues, Table1QueueMapping) {
  // private+read > shared+read > private+write > shared+write.
  EXPECT_EQ(BiasedQueues::base_queue(false, false), 0u);
  EXPECT_EQ(BiasedQueues::base_queue(true, false), 1u);
  EXPECT_EQ(BiasedQueues::base_queue(false, true), 2u);
  EXPECT_EQ(BiasedQueues::base_queue(true, true), 3u);
}

TEST(BiasedQueues, Table1StrategyMapping) {
  EXPECT_EQ(BiasedQueues::mode_for(false), mig::CopyMode::kAsync);
  EXPECT_EQ(BiasedQueues::mode_for(true), mig::CopyMode::kSync);
}

TEST(BiasedQueues, DrainFollowsPriorityOrder) {
  BiasedQueues q;
  q.push(req(1, true, true));     // queue 3
  q.push(req(2, false, true));    // queue 2
  q.push(req(3, true, false));    // queue 1
  q.push(req(4, false, false));   // queue 0
  const auto out = q.drain(4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].vpn, 4u);
  EXPECT_EQ(out[1].vpn, 3u);
  EXPECT_EQ(out[2].vpn, 2u);
  EXPECT_EQ(out[3].vpn, 1u);
}

TEST(BiasedQueues, HeatOrdersWithinQueue) {
  BiasedQueues q;
  q.push(req(1, false, false, 1.0));
  q.push(req(2, false, false, 9.0));
  q.push(req(3, false, false, 5.0));
  const auto out = q.drain(3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].vpn, 2u);
  EXPECT_EQ(out[1].vpn, 3u);
  EXPECT_EQ(out[2].vpn, 1u);
}

TEST(BiasedQueues, BudgetLeavesBacklog) {
  BiasedQueues q;
  for (vm::Vpn v = 0; v < 10; ++v) q.push(req(v, false, false));
  const auto out = q.drain(4);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(q.backlog(), 6u);
}

TEST(BiasedQueues, CopyModeForcedByClass) {
  BiasedQueues q;
  auto r = req(1, false, true);
  r.mode = mig::CopyMode::kAsync;  // wrong on purpose
  q.push(r);
  const auto out = q.drain(1);
  EXPECT_EQ(out[0].mode, mig::CopyMode::kSync)
      << "write-intensive must be sync-copied per Table 1";
}

TEST(BiasedQueues, MlfqBoostsScorchingPages) {
  BiasedQueues q(BiasedQueues::Params{.mlfq_boost_heat = 10.0});
  // A shared+read page (base queue 1) with huge heat jumps to queue 0.
  EXPECT_EQ(q.effective_queue(req(1, true, false, 50.0)), 0u);
  EXPECT_EQ(q.effective_queue(req(1, true, false, 5.0)), 1u);
  // Queue 0 cannot be boosted further.
  EXPECT_EQ(q.effective_queue(req(1, false, false, 50.0)), 0u);
}

TEST(BiasedQueues, MlfqBoostChangesDrainOrder) {
  BiasedQueues q(BiasedQueues::Params{.mlfq_boost_heat = 10.0});
  q.push(req(1, false, false, 1.0));  // queue 0, lukewarm
  q.push(req(2, true, true, 100.0)); // base queue 3, boosted to 2
  q.push(req(3, true, true, 1.0));   // queue 3
  const auto out = q.drain(3);
  EXPECT_EQ(out[0].vpn, 1u);
  EXPECT_EQ(out[1].vpn, 2u) << "boosted entry beats its base-queue sibling";
  EXPECT_EQ(out[2].vpn, 3u);
}

TEST(BiasedQueues, DuplicatePushIgnored) {
  BiasedQueues q;
  EXPECT_TRUE(q.push(req(7, false, false)));
  EXPECT_FALSE(q.push(req(7, true, true)));
  EXPECT_EQ(q.backlog(), 1u);
  q.drain(1);
  EXPECT_TRUE(q.push(req(7, false, false))) << "drained vpn can requeue";
}

TEST(BiasedQueues, RefreshReRanksByFreshHeat) {
  BiasedQueues q(BiasedQueues::Params{.mlfq_boost_heat = 10.0});
  q.push(req(1, true, false, 1.0));  // queue 1
  EXPECT_EQ(q.backlog(1), 1u);
  q.refresh([](vm::Vpn) { return 99.0; });  // page got hot
  EXPECT_EQ(q.backlog(0), 1u) << "refreshed heat boosts the entry";
  EXPECT_EQ(q.backlog(1), 0u);
}

TEST(BiasedQueues, ClearEmptiesEverything) {
  BiasedQueues q;
  q.push(req(1, false, false));
  q.push(req(2, true, true));
  q.clear();
  EXPECT_EQ(q.backlog(), 0u);
  EXPECT_TRUE(q.push(req(1, false, false)));
}

// BiasedQueues as it was before drain() selected only what it takes:
// every drain fully sorts each queue by (heat desc, vpn asc).
class FullSortQueues {
 public:
  explicit FullSortQueues(BiasedQueues::Params params) : rules_(params) {}

  void push(mig::MigrationRequest r) {
    for (const auto& q : queues_) {
      for (const auto& queued : q) {
        if (queued.vpn == r.vpn) return;
      }
    }
    r.mode = BiasedQueues::mode_for(r.write_intensive);
    queues_[rules_.effective_queue(r)].push_back(r);
  }

  std::vector<mig::MigrationRequest> drain(std::uint64_t budget) {
    std::vector<mig::MigrationRequest> out;
    for (auto& q : queues_) {
      std::sort(q.begin(), q.end(), [](const auto& a, const auto& b) {
        if (a.heat != b.heat) return a.heat > b.heat;
        return a.vpn < b.vpn;
      });
      while (out.size() < budget && !q.empty()) {
        out.push_back(q.front());
        q.erase(q.begin());
      }
    }
    return out;
  }

  template <typename HeatFn>
  void refresh(HeatFn&& heat_of) {
    std::vector<mig::MigrationRequest> all;
    for (auto& q : queues_) {
      all.insert(all.end(), q.begin(), q.end());
      q.clear();
    }
    for (auto& r : all) {
      r.heat = heat_of(r.vpn);
      push(r);
    }
  }

 private:
  BiasedQueues rules_;  ///< only its effective_queue() is used
  std::array<std::vector<mig::MigrationRequest>, BiasedQueues::kQueueCount>
      queues_;
};

// drain() selects the `take` front entries instead of sorting each whole
// queue; over several epochs of pushes (duplicates and tied heats
// included), refreshes and budgets from zero to above the backlog, it
// drains exactly what full sorts drain.
TEST(BiasedQueues, DrainMatchesAFullSortAcrossEpochs) {
  const BiasedQueues::Params params{.mlfq_boost_heat = 8.0};
  BiasedQueues q(params);
  FullSortQueues ref(params);
  sim::Rng rng(3);
  const double heats[] = {0.0, 0.5, 1.0, 1.0, 4.0, 8.0, 8.0, 30.0};
  std::uint64_t drained = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    SCOPED_TRACE(epoch);
    for (int i = 0; i < 600; ++i) {
      const auto r = req(rng.below(900), rng.chance(0.5), rng.chance(0.3),
                         heats[rng.below(std::size(heats))]);
      q.push(r);
      ref.push(r);
    }
    const auto heat_of = [epoch](vm::Vpn vpn) {
      return static_cast<double>((vpn * 7 + static_cast<vm::Vpn>(epoch)) % 11);
    };
    if (epoch % 3 == 1) {
      q.refresh(heat_of);
      ref.refresh(heat_of);
    }
    const std::uint64_t budgets[] = {0, 1, 37, 300, 5000};
    const std::uint64_t budget = budgets[epoch % std::size(budgets)];
    const auto got = q.drain(budget);
    const auto want = ref.drain(budget);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].vpn, want[i].vpn) << "entry " << i;
      ASSERT_EQ(got[i].heat, want[i].heat) << "entry " << i;
      ASSERT_EQ(got[i].mode, want[i].mode) << "entry " << i;
    }
    drained += got.size();
  }
  EXPECT_GT(drained, 0u);
}

class Table1PropertyP
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

// Property: for any class, private read-intensive pages never drain after
// pages of that class, and the strategy matches Table 1.
TEST_P(Table1PropertyP, PrivateReadAlwaysFirst) {
  const auto [shared, write] = GetParam();
  // Disable the MLFQ boost so pure Table 1 ordering is observable.
  BiasedQueues q(BiasedQueues::Params{.mlfq_boost_heat = 1e18});
  q.push(req(100, shared, write, 1000.0));  // very hot, any class
  q.push(req(1, false, false, 0.1));        // barely warm private read
  const auto out = q.drain(2);
  ASSERT_EQ(out.size(), 2u);
  if (shared || write) {
    EXPECT_EQ(out[0].vpn, 1u)
        << "private+read precedes all other classes regardless of heat";
  }
  EXPECT_EQ(out[0].mode, mig::CopyMode::kAsync);
}

INSTANTIATE_TEST_SUITE_P(Classes, Table1PropertyP,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace vulcan::policy
