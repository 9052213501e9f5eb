#include "runtime/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

TEST(PaperColocation, StagesMatchSection53) {
  const auto stages = paper_colocation(1);
  ASSERT_EQ(stages.size(), 3u);
  // Memcached at t=0, PageRank at 50 s, Liblinear at 110 s (§5.3).
  EXPECT_DOUBLE_EQ(stages[0].start_s, 0.0);
  EXPECT_EQ(stages[0].workload->spec().name, "memcached");
  EXPECT_DOUBLE_EQ(stages[1].start_s, 50.0);
  EXPECT_EQ(stages[1].workload->spec().name, "pagerank");
  EXPECT_DOUBLE_EQ(stages[2].start_s, 110.0);
  EXPECT_EQ(stages[2].workload->spec().name, "liblinear");
}

TEST(PaperColocation, SeedsDecorrelateWorkloads) {
  auto a = paper_colocation(1);
  auto b = paper_colocation(2);
  // Different scenario seeds produce different access streams.
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a[0].workload->next_access(0).page !=
        b[0].workload->next_access(0).page) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RunStaged, AdmitsAtExactBoundaries) {
  TieredSystem::Config cfg;
  cfg.samples_per_epoch = 500;
  TieredSystem sys(cfg, make_policy("vulcan"));
  std::vector<StagedWorkload> stages;
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 256;
  p.wss_pages = 128;
  stages.push_back({0.0, std::make_unique<wl::MicrobenchWorkload>(p)});
  // Exactly one epoch (0.25 s) in: admitted before the *second* epoch runs.
  stages.push_back({0.25, std::make_unique<wl::MicrobenchWorkload>(p)});

  std::vector<std::size_t> counts;
  run_staged(sys, std::move(stages), 1.0,
             [&](TieredSystem& s) { counts.push_back(s.workload_count()); });
  ASSERT_EQ(counts.size(), 4u);  // 4 epochs of 0.25 s
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(RunStaged, ZeroHorizonRunsNothing) {
  TieredSystem::Config cfg;
  TieredSystem sys(cfg, make_policy("tpp"));
  run_staged(sys, {}, 0.0);
  EXPECT_TRUE(sys.metrics().empty());
}

TEST(MakePolicy, AllNamesResolveWithDistinctIdentities) {
  for (const char* name :
       {"tpp", "memtis", "nomad", "mtm", "cascade", "vulcan"}) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(MakePolicy, OnlineCpusPropagate) {
  const auto policy = make_policy("vulcan", 16);
  EXPECT_EQ(policy->migrator_config().mechanism.online_cpus, 16u);
}

TEST(BuildScenario, LayersConfigureProvenanceExtraThenPolicy) {
  ScenarioSpec spec;
  spec.configure = [](SystemBuilder& b) {
    // Both are overridden: the caller hook runs after configure, and the
    // policy argument is set last.
    b.policy("tpp").admission(mig::AdmissionSpec{});
  };
  spec.capture_provenance = true;
  const auto sys = build_scenario(spec, "cascade", [](SystemBuilder& b) {
    mig::AdmissionSpec adm;
    adm.enabled = true;
    b.admission(adm);
  });
  EXPECT_EQ(sys->policy().name(), "cascade");
  EXPECT_TRUE(sys->provenance().enabled());
  EXPECT_NE(sys->admission_controller(), nullptr);
  EXPECT_EQ(sys->workload_count(), 0u);  // built, not staged
}

TEST(BuildScenario, BuildErrorsNameThePolicy) {
  const auto error_of = [](const ScenarioSpec& spec, const char* policy) {
    try {
      build_scenario(spec, policy);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("built");
  };
  ScenarioSpec zero_samples;
  zero_samples.configure = [](SystemBuilder& b) { b.samples_per_epoch(0); };
  EXPECT_EQ(error_of(zero_samples, "vulcan").rfind("vulcan: ", 0), 0u)
      << error_of(zero_samples, "vulcan");
  EXPECT_EQ(error_of(ScenarioSpec{}, "foo"), "foo: unknown policy \"foo\"");
}

}  // namespace
}  // namespace vulcan::runtime
