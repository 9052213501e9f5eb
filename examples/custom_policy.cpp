// Extending Vulcan: write your own tiering policy against the public
// SystemPolicy interface and run it next to the built-ins.
//
//   $ ./custom_policy
//
// The example implements "StaticSlice": a deliberately simple policy that
// hard-partitions the fast tier into equal slices and promotes each
// workload's hottest pages into its slice, demoting coldest-first when a
// slice overflows. It then races StaticSlice against Vulcan on the same
// scenario — showing both the extension API and why *adaptive* partitioning
// (CBFRP) beats a static split when demands are asymmetric.
#include <cstdio>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

class StaticSlicePolicy final : public policy::SystemPolicy {
 public:
  void plan_epoch(std::span<policy::WorkloadView> workloads,
                  mem::Topology& topo, sim::Rng& rng) override {
    (void)rng;
    if (workloads.empty()) return;
    const std::uint64_t slice =
        topo.capacity_pages(mem::kFastTier) / workloads.size();
    for (auto& view : workloads) {
      view.fast_quota = slice;
      const std::uint64_t in_fast = view.as->pages_in_tier(mem::kFastTier);
      if (in_fast > slice) {
        // The excess coldest fast pages, whatever their heat.
        auto coldest = policy::TierHeatRanking::coldest(
            view, mem::kFastTier, policy::TierHeatRanking::kAnyHeat,
            in_fast - slice);
        while (coldest.more()) {
          view.migration->enqueue_urgent(policy::make_request(
              view, coldest.next(), mem::kSlowTier, mig::CopyMode::kAsync));
        }
        continue;
      }
      // The hottest slow pages with heat >= 1, as many as the slice holds.
      auto hottest = policy::TierHeatRanking::hottest(
          view, mem::kSlowTier, /*min_heat=*/1.0, slice - in_fast);
      while (hottest.more()) {
        view.migration->enqueue(policy::make_request(
            view, hottest.next(), mem::kFastTier, mig::CopyMode::kAsync));
      }
    }
  }

  mem::TierId placement_tier(const policy::WorkloadView& view,
                             const mem::Topology& topo) const override {
    if (view.fast_quota != UINT64_MAX &&
        view.as->pages_in_tier(mem::kFastTier) >= view.fast_quota) {
      return mem::kSlowTier;
    }
    return SystemPolicy::placement_tier(view, topo);
  }

  mig::Migrator::Config migrator_config() const override {
    return {};  // vanilla mechanism, no shadowing
  }

  std::string_view name() const override { return "static-slice"; }
};

// Asymmetric demands: a small hot service and a large scanner. A static
// half/half split strands fast memory on the small workload.
void add_workloads(runtime::TieredSystem& sys) {
  {
    wl::WorkloadSpec s;
    s.name = "small-hot";
    s.rss_pages = 2048;
    s.wss_pages = 2048;
    s.threads = 4;
    s.accesses_per_sec_per_thread = 1e6;
    s.shared_access_fraction = 1.0;
    sys.add_workload(std::make_unique<wl::Workload>(
        s, s.rss_pages,
        std::make_unique<wl::ZipfianPattern>(s.rss_pages, 0.99, 0.1),
        std::make_unique<wl::UniformPattern>(s.rss_pages, 0.1), 1));
  }
  {
    wl::WorkloadSpec s;
    s.name = "big-scan";
    s.rss_pages = 12'288;
    s.wss_pages = 12'288;
    s.threads = 8;
    s.accesses_per_sec_per_thread = 4e6;
    s.latency_exposure = 0.4;
    s.shared_access_fraction = 1.0;
    sys.add_workload(std::make_unique<wl::Workload>(
        s, s.rss_pages,
        std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.05),
        std::make_unique<wl::UniformPattern>(s.rss_pages, 0.05), 2));
  }
}

void run(const char* label,
         std::unique_ptr<policy::SystemPolicy> pol) {
  runtime::TieredSystem::Config config;
  config.seed = 5;
  runtime::TieredSystem sys(config, std::move(pol));
  add_workloads(sys);
  sys.run_epochs(80);
  std::printf("%-14s small-hot perf %.3f | big-scan perf %.3f | CFI %.3f\n",
              label, sys.metrics().mean_performance(0, 40),
              sys.metrics().mean_performance(1, 40), sys.fairness_cfi());
}

}  // namespace

int main() {
  std::printf("custom policy vs built-ins on asymmetric demands\n\n");
  run("static-slice", std::make_unique<StaticSlicePolicy>());
  run("vulcan", runtime::make_policy("vulcan"));
  run("memtis", runtime::make_policy("memtis"));
  std::printf(
      "\nStaticSlice strands half the fast tier on the small workload;\n"
      "Vulcan's credit-based partitioning reassigns the surplus while\n"
      "still protecting the small workload's hot set.\n");
  return 0;
}
