#include "policy/cascade.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "sim/radix_sort.hpp"

namespace vulcan::policy {

mem::TierId CascadePolicy::placement_tier(const WorkloadView& /*view*/,
                                          const mem::Topology& topo) const {
  // First tier with headroom, fastest first.
  for (std::size_t t = 0; t < topo.tier_count(); ++t) {
    const auto tier = static_cast<mem::TierId>(t);
    if (!topo.allocator(tier).below_watermark(0.02)) return tier;
  }
  return static_cast<mem::TierId>(topo.tier_count() - 1);
}

void CascadePolicy::plan_epoch(std::span<WorkloadView> workloads,
                               mem::Topology& topo, sim::Rng& rng) {
  (void)rng;
  const std::size_t tiers = topo.tier_count();
  if (tiers == 0 || workloads.empty()) return;

  // Global heat ranking across every managed page. Each entry packs into
  // one 128-bit integer: the high word is (inverted heat bits, workload),
  // the low word (page, resident tier). Ascending integer order is the
  // (heat desc, workload asc, page asc) ranking, and the issuing loop
  // below reads each page's tier without a second page-table walk. Heat
  // is a non-negative float, so inverted IEEE bits order exactly like
  // descending value.
  using Entry = unsigned __int128;
  std::vector<Entry> ranking;
  for (std::size_t vi = 0; vi < workloads.size(); ++vi) {
    const WorkloadView& view = workloads[vi];
    const auto& tr = *view.tracker;
    const vm::PageTable& pt = view.as->tables().process_table();
    const vm::Vpn base = view.as->base_vpn();
    const std::uint64_t pages = tr.pages();
    const vm::LeafTable* leaf = nullptr;
    for (std::uint64_t p = 0; p < pages; ++p) {
      // One leaf covers each aligned 512-page run; absent leaf = the
      // whole run is unmapped.
      if ((p & (sim::kPagesPerHuge - 1)) == 0) leaf = pt.leaf_of(base + p);
      if (!leaf) {
        p |= sim::kPagesPerHuge - 1;
        continue;
      }
      const double h = tr.heat(p);
      if (!(h > 0.0)) continue;
      const vm::Pte pte = leaf->get(static_cast<unsigned>(p & 0x1FF));
      if (!pte.present()) continue;
      const auto heat_bits =
          std::bit_cast<std::uint32_t>(static_cast<float>(h));
      // The packed id is the view's *position in the span*, not
      // view.index: under churn the span is the compacted live subset, so
      // global slot indices would walk off its end in the issuing loop.
      const std::uint64_t rank =
          (static_cast<std::uint64_t>(~heat_bits) << 32) | vi;
      const std::uint64_t payload = (p << 8) | mem::tier_of(pte.pfn());
      ranking.push_back((static_cast<Entry>(rank) << 64) | payload);
    }
  }
  // Waterfall: pour the ranking down the tiers; record boundaries. The
  // anti-thrash margin is evaluated against the *previous* epoch's
  // boundaries (this epoch's are still forming).
  std::vector<double> prev = boundaries_;
  prev.resize(tiers, 0.0);
  boundaries_.assign(tiers, 0.0);

  // The tier budgets cut the sorted ranking into consecutive regions, one
  // per tier, so nothing needs the full order: nth_element at each
  // region's last entry gathers exactly the region's entries and puts its
  // largest (coolest) key last, which is the tier's boundary. Only the
  // region's movers (entries resident in another tier) are sorted, and
  // they are issued in ranking order, as a full sort would issue them.
  const auto heat_of = [](const Entry& e) {
    return std::bit_cast<float>(~static_cast<std::uint32_t>(e >> 96));
  };
  std::vector<std::uint64_t> issued(workloads.size(), 0);
  std::vector<Entry> movers;
  std::vector<Entry> scratch;
  std::size_t begin = 0;
  for (std::size_t tier = 0; tier < tiers && begin < ranking.size(); ++tier) {
    const auto budget = static_cast<std::uint64_t>(
        params_.fill_fraction *
        static_cast<double>(
            topo.capacity_pages(static_cast<mem::TierId>(tier))));
    if (budget == 0) continue;
    const std::size_t end =
        begin + std::min<std::uint64_t>(budget, ranking.size() - begin);
    const auto first = ranking.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = ranking.begin() + static_cast<std::ptrdiff_t>(end);
    if (last == ranking.end()) {
      std::iter_swap(std::max_element(first, last), last - 1);
    } else {
      std::nth_element(first, last - 1, ranking.end());
    }
    boundaries_[tier] = heat_of(*(last - 1));  // coolest page admitted

    const auto assigned = static_cast<mem::TierId>(tier);
    movers.clear();
    for (auto it = first; it != last; ++it) {
      if ((static_cast<std::uint64_t>(*it) & 0xFF) != assigned) {
        movers.push_back(*it);
      }
    }
    scratch.resize(movers.size());
    sim::radix_sort(movers.data(), scratch.data(), movers.size());
    begin = end;

    for (const Entry& e : movers) {
      const std::uint32_t wl = static_cast<std::uint32_t>(e >> 64);
      const float heat = heat_of(e);
      const auto payload = static_cast<std::uint64_t>(e);
      const std::uint64_t page = payload >> 8;
      const auto current = static_cast<mem::TierId>(payload & 0xFF);

      WorkloadView& view = workloads[wl];
      if (issued[wl] >= params_.max_moves_per_workload) continue;
      // Anti-thrash: a page promoted from the adjacent slower tier must
      // clear last epoch's admission boundary with a margin — pages living
      // right at the boundary would otherwise flip tiers every epoch.
      if (assigned + 1 == current && prev[assigned] > 0.0 &&
          heat <= params_.boundary_hysteresis * prev[assigned] &&
          heat >= prev[assigned] / params_.boundary_hysteresis) {
        continue;
      }
      // Provenance threshold: last epoch's admission boundary for the tier
      // the ruler applies to. A promotion had to clear the *destination*
      // boundary; a demotion fell under its *source* boundary — using the
      // destination cut for demotions (the old behaviour) flips the benefit
      // sign, since a demoted page is usually the hottest of its new tier.
      const bool demote = assigned > current;
      auto req = make_request(view, page, assigned, mig::CopyMode::kAsync,
                              {.rank = issued[wl],
                               .threshold = demote ? prev[current]
                                                   : prev[assigned],
                               .queue_bias = demote ? -1.0 : 0.0});
      if (demote) {
        view.migration->enqueue_urgent(req);  // demotions free capacity first
      } else {
        view.migration->enqueue(req);
      }
      ++issued[wl];
    }
  }

  // Pages with zero heat that sit in the top tier sink one step down when
  // capacity is needed (bounded cold sweep; repeated epochs cascade them
  // further if they stay cold).
  const auto next_down =
      static_cast<mem::TierId>(std::min<std::size_t>(1, tiers - 1));
  for (WorkloadView& view : workloads) {
    if (topo.allocator(mem::kFastTier).free_pages() >
        topo.capacity_pages(mem::kFastTier) / 16) {
      break;  // no pressure
    }
    // Heats are non-negative, so heat < denorm_min keeps exactly the
    // zero-heat pages.
    auto fast_cold = TierHeatRanking::coldest(
        view, mem::kFastTier, std::numeric_limits<double>::denorm_min(), 256);
    for (std::uint64_t swept = 0; fast_cold.more(); ++swept) {
      // Zero-heat pages fell under the fast tier's admission boundary;
      // measuring against it keeps the demotion benefit positive.
      view.migration->enqueue_urgent(
          make_request(view, fast_cold.next(), next_down,
                       mig::CopyMode::kAsync,
                       {.rank = swept,
                        .threshold = prev[mem::kFastTier],
                        .queue_bias = -1.0}));
    }
  }
}

}  // namespace vulcan::policy
