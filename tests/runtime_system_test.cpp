// Integration tests: the full epoch loop end to end.
#include "runtime/system.hpp"

#include <gtest/gtest.h>

#include "runtime/experiment.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

TieredSystem::Config small_config(std::uint64_t seed = 42) {
  TieredSystem::Config cfg;
  // Dense enough that a 12K-page scanner's whole set is observed per epoch
  // (sampling sparsity would otherwise understate BE heat).
  cfg.samples_per_epoch = 10'000;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<wl::Workload> small_microbench(std::uint64_t wss,
                                               std::uint64_t rss,
                                               double write_ratio = 0.1) {
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = rss;
  p.wss_pages = wss;
  p.write_ratio = write_ratio;
  return std::make_unique<wl::MicrobenchWorkload>(p);
}

TEST(TieredSystem, SoloWorkloadConvergesToFastTier) {
  for (const char* policy : {"tpp", "memtis", "nomad", "vulcan"}) {
    TieredSystem sys(small_config(), make_policy(policy));
    // WSS (1024) fits comfortably in the fast tier (8192 pages).
    sys.add_workload(small_microbench(1024, 16'384));
    sys.run_epochs(30);
    EXPECT_GT(sys.metrics().mean_fthr(0, /*from=*/20), 0.85)
        << policy << ": hot working set should live in the fast tier";
    EXPECT_GT(sys.metrics().mean_performance(0, 20), 0.8) << policy;
  }
}

TEST(TieredSystem, DeterministicForSeed) {
  auto run = [] {
    TieredSystem sys(small_config(7), make_policy("vulcan"));
    sys.add_workload(small_microbench(2048, 8192));
    sys.add_workload(small_microbench(1024, 8192));
    sys.run_epochs(15);
    std::ostringstream csv;
    obs::CsvExporter exporter(csv);
    sys.metrics().write(exporter);
    return csv.str();
  };
  EXPECT_EQ(run(), run());
}

TEST(TieredSystem, SeedChangesStream) {
  auto run = [](std::uint64_t seed) {
    TieredSystem sys(small_config(seed), make_policy("vulcan"));
    sys.add_workload(small_microbench(2048, 8192));
    sys.run_epochs(10);
    std::ostringstream csv;
    obs::CsvExporter exporter(csv);
    sys.metrics().write(exporter);
    return csv.str();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(TieredSystem, MetricsShapeIsSound) {
  TieredSystem sys(small_config(), make_policy("memtis"));
  sys.add_workload(small_microbench(512, 4096));
  sys.run_epochs(5);
  ASSERT_EQ(sys.metrics().epochs().size(), 5u);
  for (const auto& epoch : sys.metrics().epochs()) {
    ASSERT_EQ(epoch.workloads.size(), 1u);
    const auto& m = epoch.workloads[0];
    EXPECT_GE(m.fthr, 0.0);
    EXPECT_LE(m.fthr, 1.0);
    EXPECT_GT(m.performance, 0.0);
    EXPECT_LE(m.performance, 1.0 + 1e-9);
    EXPECT_EQ(m.fast_pages + m.slow_pages, sys.address_space(0).faulted_pages());
    EXPECT_GT(m.accesses, 0.0);
  }
}

TEST(TieredSystem, FrameAccountingConsistent) {
  TieredSystem sys(small_config(), make_policy("vulcan"));
  sys.add_workload(small_microbench(1024, 4096));
  sys.add_workload(small_microbench(1024, 4096));
  sys.run_epochs(20);
  // Allocator usage == mapped pages + live shadows, per tier.
  std::uint64_t mapped_fast = 0, mapped_slow = 0, shadows = 0;
  for (unsigned w = 0; w < 2; ++w) {
    mapped_fast += sys.address_space(w).pages_in_tier(mem::kFastTier);
    mapped_slow += sys.address_space(w).pages_in_tier(mem::kSlowTier);
    shadows += sys.migrator(w).shadows().size();
  }
  EXPECT_EQ(sys.topology().allocator(mem::kFastTier).used(), mapped_fast);
  EXPECT_EQ(sys.topology().allocator(mem::kSlowTier).used(),
            mapped_slow + shadows);
}

// An LC service with a hot set whose *per-page* heat sits below a BE
// scanner's — the cold-page-dilemma precondition (§2.2): per-page heat
// LC = 0.9 * 0.4M / 819 = 440 vs BE = 12M / 12288 = 976 per epoch.
std::unique_ptr<wl::Workload> dilemma_lc(std::uint64_t seed = 11) {
  wl::WorkloadSpec s;
  s.name = "lc-hotset";
  s.service_class = wl::ServiceClass::kLatencyCritical;
  s.rss_pages = 8192;
  s.wss_pages = 8192;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 2e5;
  s.compute_cycles_per_access = 50;
  s.latency_exposure = 1.0;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, /*shared_pages=*/8192,
      std::make_unique<wl::HotsetPattern>(8192, 0.10, 0.90, 0.10),
      std::make_unique<wl::UniformPattern>(8192, 0.10), seed);
}

std::unique_ptr<wl::Workload> dilemma_be(std::uint64_t seed = 22) {
  wl::WorkloadSpec s;
  s.name = "be-scanner";
  s.service_class = wl::ServiceClass::kBestEffort;
  s.rss_pages = 12'288;  // alone larger than the whole fast tier
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;
  s.compute_cycles_per_access = 60;
  s.latency_exposure = 0.3;  // streaming, prefetch-friendly
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, /*shared_pages=*/12'288,
      std::make_unique<wl::SequentialPattern>(12'288, 0.05),
      std::make_unique<wl::UniformPattern>(12'288, 0.05), seed);
}

TEST(TieredSystem, ColdPageDilemmaRegression) {
  // The paper's Fig. 1 in miniature: Memtis lets the BE intensity evict
  // the LC hot set; Vulcan's partitioning protects it.
  auto run = [&](const char* policy) {
    TieredSystem sys(small_config(), make_policy(policy));
    sys.add_workload(dilemma_lc());
    sys.add_workload(dilemma_be());
    sys.run_epochs(40);
    return sys.metrics().mean_fthr(0, /*from=*/25);
  };

  const double memtis_fthr = run("memtis");
  const double vulcan_fthr = run("vulcan");
  EXPECT_LT(memtis_fthr, 0.6) << "Memtis: LC starved of fast memory";
  EXPECT_GT(vulcan_fthr, memtis_fthr + 0.15)
      << "Vulcan must protect the LC working set";
}

TEST(TieredSystem, StagedArrivalAddsWorkloads) {
  TieredSystem sys(small_config(), make_policy("vulcan"));
  std::vector<StagedWorkload> stages;
  stages.push_back({0.0, small_microbench(512, 2048)});
  stages.push_back({1.0, small_microbench(512, 2048)});
  run_staged(sys, std::move(stages), /*end_s=*/2.0);
  EXPECT_EQ(sys.workload_count(), 2u);
  // The late workload has fewer epochs of metrics.
  const auto& epochs = sys.metrics().epochs();
  EXPECT_EQ(epochs.front().workloads.size(), 1u);
  EXPECT_EQ(epochs.back().workloads.size(), 2u);
}

TEST(TieredSystem, MakePolicyRejectsUnknown) {
  EXPECT_THROW(make_policy("linux"), std::invalid_argument);
}

TEST(TieredSystem, CfiReflectsMonopolisation) {
  auto run_cfi = [&](const char* policy) {
    TieredSystem sys(small_config(), make_policy(policy));
    sys.add_workload(dilemma_lc());
    sys.add_workload(dilemma_be());
    sys.run_epochs(30);
    return sys.fairness_cfi();
  };
  EXPECT_GT(run_cfi("vulcan"), run_cfi("memtis"))
      << "partitioned allocation must be fairer than global hotness";
}

TEST(TieredSystem, PerWorkloadProfilerSelection) {
  // §3.2: each application selects its own profiling mechanism. Drive two
  // identical workloads, one on PEBS and one on PT-scan, and check both
  // converge (the mechanisms differ; the outcome shouldn't).
  TieredSystem sys(small_config(), make_policy("vulcan"));
  sys.add_workload(small_microbench(512, 2048), ProfilerKind::kPebs);
  sys.add_workload(small_microbench(512, 2048), ProfilerKind::kPtScan);
  sys.run_epochs(25);
  EXPECT_GT(sys.metrics().mean_fthr(0, 15), 0.8);
  EXPECT_GT(sys.metrics().mean_fthr(1, 15), 0.8);
}

class ProfilerKindP : public ::testing::TestWithParam<ProfilerKind> {};

TEST_P(ProfilerKindP, AllProfilersDriveConvergence) {
  auto cfg = small_config();
  cfg.profiler = GetParam();
  TieredSystem sys(cfg, make_policy("vulcan"));
  sys.add_workload(small_microbench(1024, 8192));
  sys.run_epochs(30);
  EXPECT_GT(sys.metrics().mean_fthr(0, 20), 0.7);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ProfilerKindP,
                         ::testing::Values(ProfilerKind::kPebs,
                                           ProfilerKind::kPtScan,
                                           ProfilerKind::kHintFault,
                                           ProfilerKind::kHybrid));

}  // namespace
}  // namespace vulcan::runtime
