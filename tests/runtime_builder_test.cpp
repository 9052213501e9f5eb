#include "runtime/builder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "policy/threshold.hpp"
#include "runtime/experiment.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

/// The message constructing a TieredSystem directly from `config` throws,
/// or an empty string when construction succeeds.
std::string construction_error(const TieredSystem::Config& config) {
  try {
    TieredSystem sys(config, make_policy("vulcan"));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

/// `n` tiers of 4096 pages each, slower and narrower the deeper they sit.
std::vector<mem::TierConfig> tiers_of_4096(std::size_t n) {
  std::vector<mem::TierConfig> tiers;
  for (std::size_t t = 0; t < n; ++t) {
    tiers.push_back({"tier" + std::to_string(t), 4096, 70 + 20 * t,
                     205.0 / static_cast<double>(t + 1)});
  }
  return tiers;
}

TEST(SystemBuilder, DefaultsBuildAWorkingSystem) {
  auto built = SystemBuilder{}.build();
  ASSERT_TRUE(built.ok()) << built.error();
  TieredSystem& sys = *built.value();
  EXPECT_EQ(sys.workload_count(), 0u);
  EXPECT_GT(sys.migration_budget_pages(), 0u);
}

TEST(SystemBuilder, StagedWorkloadsRegisterInOrder) {
  auto built = SystemBuilder{}
                   .seed(11)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(1))
                   .add_workload(wl::make_liblinear(2))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  TieredSystem& sys = *built.value();
  ASSERT_EQ(sys.workload_count(), 2u);
  EXPECT_EQ(sys.workload(0).spec().name, "memcached");
  EXPECT_EQ(sys.workload(1).spec().name, "liblinear");
}

TEST(SystemBuilder, RejectsZeroCores) {
  auto built = SystemBuilder{}.machine({.cores = 0}).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("cores"), std::string::npos);
}

TEST(SystemBuilder, RejectsZeroSamples) {
  auto built = SystemBuilder{}.samples_per_epoch(0).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("samples"), std::string::npos);
}

TEST(SystemBuilder, RejectsZeroEpoch) {
  EXPECT_FALSE(SystemBuilder{}.epoch(0).build().ok());
  EXPECT_FALSE(SystemBuilder{}.epoch_ms(0.0).build().ok());
}

TEST(SystemBuilder, RejectsZeroCoresPerWorkload) {
  EXPECT_FALSE(SystemBuilder{}.cores_per_workload(0).build().ok());
}

TEST(SystemBuilder, RejectsBadHeatDecay) {
  EXPECT_FALSE(SystemBuilder{}.heat_decay(0.0).build().ok());
  EXPECT_FALSE(SystemBuilder{}.heat_decay(1.5).build().ok());
  EXPECT_TRUE(SystemBuilder{}.heat_decay(1.0).build().ok());
}

TEST(SystemBuilder, RejectsTiersWhereTierZeroIsNotFastest) {
  auto built = SystemBuilder{}
                   .tiers({{"cxl", 1024, 162, 25.0}, {"dram", 1024, 70, 205.0}})
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("fastest"), std::string::npos);
}

TEST(SystemBuilder, RejectsEmptyAndZeroCapacityTiers) {
  EXPECT_FALSE(SystemBuilder{}.tiers({}).build().ok());
  EXPECT_FALSE(
      SystemBuilder{}.tiers({{"dram", 0, 70, 205.0}}).build().ok());
}

TEST(SystemBuilder, AcceptsValidThreeTierTopology) {
  auto built = SystemBuilder{}
                   .tiers({{"hbm", 2048, 40, 400.0},
                           {"dram", 4096, 70, 205.0},
                           {"cxl", 8192, 162, 25.0}})
                   .build();
  EXPECT_TRUE(built.ok()) << built.error();
}

TEST(SystemBuilder, BothPathsRejectMoreTiersThanTheEngineHolds) {
  auto built =
      SystemBuilder{}.tiers(tiers_of_4096(mem::kMaxTiers + 1)).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error(),
            "custom tier list has 9 tiers; at most 8 are supported");

  TieredSystem::Config config;
  config.custom_tiers = tiers_of_4096(mem::kMaxTiers + 1);
  EXPECT_EQ(construction_error(config), built.error());
}

TEST(SystemBuilder, MaxTiersRunAuditedUnderEveryPolicy) {
  constexpr mem::TierId kDeepest = mem::kMaxTiers - 1;
  for (const std::string& policy : all_policy_names()) {
    SCOPED_TRACE(policy);
    // Two prefaulted 15360-page apps overflow the first seven tiers, so
    // the deepest tier holds pages throughout.
    wl::MicrobenchWorkload::Params params;
    params.rss_pages = 15360;
    params.wss_pages = 4096;
    auto built = SystemBuilder{}
                     .tiers(tiers_of_4096(mem::kMaxTiers))
                     .samples_per_epoch(2000)
                     .audit(check::AuditLevel::kFull)
                     .policy(policy)
                     .add_workload(
                         std::make_unique<wl::MicrobenchWorkload>(params))
                     .add_workload(
                         std::make_unique<wl::MicrobenchWorkload>(params))
                     .build();
    ASSERT_TRUE(built.ok()) << built.error();
    TieredSystem& sys = *built.value();
    sys.prefault(0);
    sys.prefault(1);
    sys.run_epochs(8);
    EXPECT_TRUE(sys.last_audit().ok());
    EXPECT_GT(sys.last_audit().checks, 0u);
    EXPECT_LT(sys.topology().free_pages(kDeepest),
              sys.topology().capacity_pages(kDeepest));
  }
}

// A one-page fast tier leaves the capacity-threshold planners (Memtis,
// MTM) no hot capacity after their 2% slack: floor(0.98 x 1) = 0. They
// used to read the heat ranking at position -1; now no page is hot, so
// nothing is promoted. Every policy must run one- and two-page fast tiers
// clean under the full audit.
TEST(SystemBuilder, TinyFastTierRunsAuditedUnderEveryPolicy) {
  for (const std::uint64_t fast_pages : {1u, 2u}) {
    for (const std::string& policy : all_policy_names()) {
      SCOPED_TRACE(policy + " over a " + std::to_string(fast_pages) +
                   "-page fast tier");
      wl::MicrobenchWorkload::Params params;
      params.rss_pages = 2048;
      params.wss_pages = 512;
      auto built = SystemBuilder{}
                       .tiers({{"dram", fast_pages, 70, 205.0},
                               {"cxl", 16384, 162, 25.0}})
                       .samples_per_epoch(2000)
                       .audit(check::AuditLevel::kFull)
                       .policy(policy)
                       .add_workload(
                           std::make_unique<wl::MicrobenchWorkload>(params))
                       .build();
      ASSERT_TRUE(built.ok()) << built.error();
      TieredSystem& sys = *built.value();
      sys.run_epochs(4);
      EXPECT_TRUE(sys.last_audit().ok());
      EXPECT_GT(sys.last_audit().checks, 0u);
      if (const auto* planner =
              dynamic_cast<const policy::ThresholdPlanner*>(&sys.policy());
          planner && fast_pages == 1) {
        EXPECT_TRUE(std::isinf(planner->last_threshold()));
      }
    }
  }
}

TEST(SystemBuilder, DirectConstructionThrowsTheMessageBuildReturns) {
  using Breaker = std::function<void(TieredSystem::Config&)>;
  const std::vector<Breaker> breakers = {
      [](TieredSystem::Config& c) { c.machine.cores = 0; },
      [](TieredSystem::Config& c) { c.epoch = 0; },
      [](TieredSystem::Config& c) { c.samples_per_epoch = 0; },
      [](TieredSystem::Config& c) { c.cores_per_workload = 0; },
      [](TieredSystem::Config& c) { c.heat_decay = 1.5; },
      [](TieredSystem::Config& c) { c.timeseries.window = 0; },
      [](TieredSystem::Config& c) { c.timeseries.retention = 0; },
      [](TieredSystem::Config& c) { c.timeseries.ewma_alpha = 0.0; },
      [](TieredSystem::Config& c) { c.flight_epochs = 0; },
      [](TieredSystem::Config& c) { c.slo_rules.emplace_back(); },
      [](TieredSystem::Config& c) {
        c.custom_tiers = std::vector<mem::TierConfig>{};
      },
      [](TieredSystem::Config& c) {
        c.custom_tiers = std::vector<mem::TierConfig>{
            {"cxl", 1024, 162, 25.0}, {"dram", 1024, 70, 205.0}};
      },
  };
  for (std::size_t i = 0; i < breakers.size(); ++i) {
    SCOPED_TRACE(i);
    SystemBuilder builder;
    breakers[i](builder.config());
    const BuildResult built = builder.build();
    ASSERT_FALSE(built.ok());

    TieredSystem::Config config;
    breakers[i](config);
    EXPECT_EQ(TieredSystem::validate(config), built.error());
    EXPECT_EQ(construction_error(config), built.error());
  }
  EXPECT_EQ(construction_error(TieredSystem::Config{}), "");
}

TEST(SystemBuilder, UnknownPolicyNameIsAnErrorNotAThrow) {
  auto built = SystemBuilder{}.policy("colloid").build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("colloid"), std::string::npos);
}

TEST(SystemBuilder, AcceptsConcretePolicyInstance) {
  auto built = SystemBuilder{}.policy(make_policy("tpp")).build();
  ASSERT_TRUE(built.ok()) << built.error();
  EXPECT_EQ(built.value()->policy().name(), "tpp");
}

TEST(SystemBuilder, MatchesLegacyConfigConstructionExactly) {
  // The builder is a veneer over TieredSystem::Config; identical settings
  // must give an identical (deterministic) simulation.
  const std::uint64_t kSeed = 97;
  const unsigned kEpochs = 6;

  TieredSystem::Config config;
  config.seed = kSeed;
  config.samples_per_epoch = 2000;
  TieredSystem legacy(config, make_policy("vulcan"));
  legacy.add_workload(wl::make_memcached(5));
  legacy.run_epochs(kEpochs);

  auto built = SystemBuilder{}
                   .seed(kSeed)
                   .samples_per_epoch(2000)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(5))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  TieredSystem& sys = *built.value();
  sys.run_epochs(kEpochs);

  std::ostringstream a, b;
  obs::CsvExporter a_csv(a), b_csv(b);
  legacy.metrics().write(a_csv);
  sys.metrics().write(b_csv);
  EXPECT_EQ(a.str(), b.str());

  std::ostringstream ja, jb;
  legacy.obs_registry().write_json(ja);
  sys.obs_registry().write_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

}  // namespace
}  // namespace vulcan::runtime
