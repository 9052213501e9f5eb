// The planners' fast selections, pinned against the plain sort-based
// rankings they replace, on inputs a benchmark never produces: tied heats,
// zero and denormal heats, empty tiers, limits above the candidate count,
// a tier with no budget and more than two tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/provenance.hpp"
#include "policy/cascade.hpp"
#include "vm/mmu.hpp"

namespace vulcan::policy {
namespace {

/// Heats drawn from a small set so that ties are common; 1e-40 is a
/// denormal float, 0 an untouched page.
constexpr double kHeatPalette[] = {0.0, 1e-40, 3e-39, 0.25, 1.0,
                                   1.0, 2.0,   2.0,   7.5,  1e6};

/// Hand-built workloads over a four-tier machine whose second tier is one
/// page: too small for any fill fraction to give it a budget.
class RankingWorld {
 public:
  static constexpr unsigned kApps = 3;
  static constexpr std::uint64_t kRss = 700;

  explicit RankingWorld(const mig::Migrator::Config& mig_cfg)
      : topo_(std::vector<mem::TierConfig>{{"hbm", 96, 40, 400.0},
                                           {"tiny", 1, 60, 300.0},
                                           {"dram", 320, 80, 205.0},
                                           {"cxl", 8192, 180, 25.0}}),
        ledger_(obs::ProvenanceConfig{.enabled = true}) {
    sim::Rng rng(11);
    for (unsigned w = 0; w < kApps; ++w) {
      vm::AddressSpace::Config cfg;
      cfg.pid = w + 1;
      cfg.rss_pages = kRss;
      cfg.thp = false;
      as_.push_back(std::make_unique<vm::AddressSpace>(cfg, topo_));
      const auto thread = as_.back()->add_thread();
      // Pages fault round-robin over the tiers (a full tier spills to a
      // slower one); every tenth page stays unmapped.
      for (std::uint64_t p = 0; p < kRss; ++p) {
        if (p % 10 == 9) continue;
        const auto tier = static_cast<mem::TierId>((p + w) % 4);
        as_.back()->fault(as_.back()->vpn_at(p), thread, false, tier);
      }
      trackers_.push_back(std::make_unique<prof::HeatTracker>(kRss));
      for (std::uint64_t p = 0; p < kRss; ++p) {
        const double heat = kHeatPalette[rng.below(std::size(kHeatPalette))];
        if (heat > 0.0) trackers_.back()->record(p, false, heat);
      }
      auto worker_cfg = mig_cfg;
      worker_cfg.process_cores = {static_cast<vm::CoreId>(w)};
      migrators_.push_back(std::make_unique<mig::Migrator>(
          *as_.back(), topo_, shootdowns_, cost_, worker_cfg));
      threads_.push_back(
          std::make_unique<mig::MigrationThread>(*migrators_.back()));
    }
  }

  std::vector<WorkloadView> views() {
    std::vector<WorkloadView> v;
    for (unsigned w = 0; w < kApps; ++w) {
      WorkloadView view;
      view.index = w;
      view.as = as_[w].get();
      view.tracker = trackers_[w].get();
      view.migration = threads_[w].get();
      view.ledger = &ledger_;
      v.push_back(view);
    }
    return v;
  }

  /// Add heat to every `stride`-th page of every app.
  void reheat(std::uint64_t stride, double heat) {
    for (auto& tracker : trackers_) {
      for (std::uint64_t p = 0; p < kRss; p += stride) {
        tracker->record(p, false, heat);
      }
    }
  }

  mem::Topology topo_;
  sim::CostModel cost_;
  vm::Mmu mmu_{vm::Mmu::Config{.cores = 4}};
  vm::ShootdownController shootdowns_{cost_, mmu_};
  obs::ProvenanceLedger ledger_;
  std::vector<std::unique_ptr<vm::AddressSpace>> as_;
  std::vector<std::unique_ptr<prof::HeatTracker>> trackers_;
  std::vector<std::unique_ptr<mig::Migrator>> migrators_;
  std::vector<std::unique_ptr<mig::MigrationThread>> threads_;
  sim::Rng rng_{7};
};

std::uint32_t heat_bits(double heat) {
  return std::bit_cast<std::uint32_t>(static_cast<float>(heat));
}

/// The unbounded ranking: every page of `tier`, fully sorted by
/// (heat, page), hottest or coldest first.
std::vector<std::uint64_t> full_ranking(const WorkloadView& view,
                                        mem::TierId tier, bool hottest) {
  std::vector<std::uint64_t> pages;
  for (std::uint64_t p = 0; p < view.as->rss_pages(); ++p) {
    const vm::Pte pte = view.as->tables().get(view.as->vpn_at(p));
    if (pte.present() && mem::tier_of(pte.pfn()) == tier) pages.push_back(p);
  }
  std::sort(pages.begin(), pages.end(), [&](std::uint64_t a, std::uint64_t b) {
    const std::uint32_t ha = heat_bits(view.tracker->heat(a));
    const std::uint32_t hb = heat_bits(view.tracker->heat(b));
    if (ha != hb) return hottest ? ha > hb : ha < hb;
    return a < b;
  });
  return pages;
}

TEST(TierHeatRanking, CutRankingsPopThePrefixTheCallerConsumes) {
  RankingWorld world({});
  const std::uint64_t limits[] = {0, 1, 3, 17, 64, 5000,
                                  TierHeatRanking::kNoLimit};
  const double bounds[] = {0.0, 1e-40, 3e-39, 1.0, 2.0, 1e6, 1e9,
                           TierHeatRanking::kAnyHeat};
  std::uint64_t compared = 0;
  std::uint64_t empty_tiers = 0;
  for (const WorkloadView& view : world.views()) {
    for (std::size_t t = 0; t < world.topo_.tier_count(); ++t) {
      const auto tier = static_cast<mem::TierId>(t);
      empty_tiers += view.as->pages_in_tier(tier) == 0;
      for (const bool hottest : {true, false}) {
        const std::vector<std::uint64_t> full =
            full_ranking(view, tier, hottest);
        for (const double bound : bounds) {
          for (const std::uint64_t limit : limits) {
            // The caller's loop: pop while the heat passes, up to limit.
            std::vector<std::uint64_t> want;
            for (const std::uint64_t page : full) {
              const double heat = view.tracker->heat(page);
              if (hottest ? heat < bound : heat >= bound) break;
              if (want.size() >= limit) break;
              want.push_back(page);
            }
            auto ranking =
                hottest ? TierHeatRanking::hottest(view, tier, bound, limit)
                        : TierHeatRanking::coldest(view, tier, bound, limit);
            std::vector<std::uint64_t> got;
            while (ranking.more()) got.push_back(ranking.next());
            ASSERT_EQ(got, want)
                << "app " << view.index << " tier " << t
                << (hottest ? " hottest" : " coldest") << " bound " << bound
                << " limit " << limit;
            compared += want.size();
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(empty_tiers, 0u) << "the one-page tier holds one app's page";
}

/// One issued request, as the provenance ledger records it.
struct Issued {
  std::int32_t app = 0;
  std::uint64_t page = 0;
  std::int32_t to = 0;
  std::uint64_t rank = 0;
  double threshold = 0.0;
  double queue_bias = 0.0;
  bool operator==(const Issued&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Issued& i) {
  return out << "{app " << i.app << " page " << i.page << " to " << i.to
             << " rank " << i.rank << " threshold " << i.threshold
             << " bias " << i.queue_bias << "}";
}

/// Movers the reference skipped, by reason.
struct Skips {
  std::uint64_t capped = 0;
  std::uint64_t hysteresis = 0;
};

/// CascadePolicy::plan_epoch as a full sort of every heated page followed
/// by a walk of the sorted ranking: the reference the partitioned
/// waterfall must reproduce. Updates `boundaries` like the policy does.
std::vector<Issued> reference_cascade(std::vector<WorkloadView>& views,
                                      const mem::Topology& topo,
                                      const CascadePolicy::Params& params,
                                      std::vector<double>& boundaries,
                                      Skips& skips) {
  struct Entry {
    std::uint32_t bits;
    std::uint32_t wl;
    std::uint64_t page;
    mem::TierId tier;
  };
  std::vector<Entry> ranking;
  for (std::uint32_t wl = 0; wl < views.size(); ++wl) {
    const WorkloadView& view = views[wl];
    for (std::uint64_t p = 0; p < view.as->rss_pages(); ++p) {
      const vm::Pte pte = view.as->tables().get(view.as->vpn_at(p));
      const double heat = view.tracker->heat(p);
      if (!pte.present() || !(heat > 0.0)) continue;
      ranking.push_back({heat_bits(heat), wl, p, mem::tier_of(pte.pfn())});
    }
  }
  std::sort(ranking.begin(), ranking.end(), [](const Entry& a, const Entry& b) {
    if (a.bits != b.bits) return a.bits > b.bits;
    if (a.wl != b.wl) return a.wl < b.wl;
    return a.page < b.page;
  });

  const std::size_t tiers = topo.tier_count();
  std::vector<double> prev = boundaries;
  prev.resize(tiers, 0.0);
  boundaries.assign(tiers, 0.0);
  std::vector<std::uint64_t> budget(tiers);
  for (std::size_t t = 0; t < tiers; ++t) {
    budget[t] = static_cast<std::uint64_t>(
        params.fill_fraction *
        static_cast<double>(topo.capacity_pages(static_cast<mem::TierId>(t))));
  }
  std::vector<Issued> out;
  std::vector<std::uint64_t> issued(views.size(), 0);
  std::size_t tier = 0;
  for (const Entry& e : ranking) {
    while (tier < tiers && budget[tier] == 0) ++tier;
    if (tier >= tiers) break;
    --budget[tier];
    const float heat = std::bit_cast<float>(e.bits);
    boundaries[tier] = heat;
    const auto assigned = static_cast<mem::TierId>(tier);
    if (e.tier == assigned) continue;
    if (issued[e.wl] >= params.max_moves_per_workload) {
      ++skips.capped;
      continue;
    }
    if (assigned + 1 == e.tier && prev[assigned] > 0.0 &&
        heat <= params.boundary_hysteresis * prev[assigned] &&
        heat >= prev[assigned] / params.boundary_hysteresis) {
      ++skips.hysteresis;
      continue;
    }
    const bool demote = assigned > e.tier;
    out.push_back({static_cast<std::int32_t>(views[e.wl].index), e.page,
                   assigned, issued[e.wl],
                   demote ? prev[e.tier] : prev[assigned],
                   demote ? -1.0 : 0.0});
    ++issued[e.wl];
  }
  // The bounded cold sweep: up to 256 zero-heat fast pages per app, page
  // order, while the fast tier is under pressure.
  if (topo.allocator(mem::kFastTier).free_pages() <=
      topo.capacity_pages(mem::kFastTier) / 16) {
    for (const WorkloadView& view : views) {
      std::uint64_t swept = 0;
      for (std::uint64_t page :
           full_ranking(view, mem::kFastTier, /*hottest=*/false)) {
        if (view.tracker->heat(page) > 0.0 || swept >= 256) break;
        out.push_back({static_cast<std::int32_t>(view.index), page, 1,
                       swept++, prev[mem::kFastTier], -1.0});
      }
    }
  }
  return out;
}

TEST(Cascade, PartitionedWaterfallIssuesWhatAFullSortIssues) {
  CascadePolicy::Params params;
  params.max_moves_per_workload = 200;  // some apps hit the cap
  CascadePolicy policy(params);
  RankingWorld world(policy.migrator_config());
  ASSERT_LE(world.topo_.allocator(mem::kFastTier).free_pages(),
            world.topo_.capacity_pages(mem::kFastTier) / 16)
      << "the cold sweep should run";
  std::vector<double> boundaries;
  Skips skips;
  std::uint64_t compared = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    SCOPED_TRACE(epoch);
    auto views = world.views();
    const std::vector<Issued> want =
        reference_cascade(views, world.topo_, params, boundaries, skips);
    const std::size_t first = world.ledger_.decisions();
    policy.plan_epoch(views, world.topo_, world.rng_);
    std::vector<Issued> got;
    for (std::size_t i = first; i < world.ledger_.decisions(); ++i) {
      const obs::DecisionRow row = world.ledger_.decision(i);
      got.push_back({row.app, row.page, row.to_tier, row.features.rank,
                     row.features.threshold, row.features.queue_bias});
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "request " << i;
    }
    EXPECT_EQ(policy.boundaries(), boundaries);
    compared += want.size();
    // Nothing executes: the next epoch ranks the same placement under
    // slightly warmer heats, so this epoch's boundaries barely move and
    // the anti-thrash margin around them binds.
    for (auto& thread : world.threads_) thread->clear_backlog();
    world.reheat(3 + epoch, 0.1);
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(skips.capped, 0u) << "the per-app cap should bind";
  EXPECT_GT(skips.hysteresis, 0u) << "the anti-thrash margin should bind";
}

}  // namespace
}  // namespace vulcan::policy
