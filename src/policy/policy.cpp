#include "policy/policy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/provenance.hpp"

namespace vulcan::policy {

mig::MigrationRequest make_request(const WorkloadView& view,
                                   std::uint64_t page, mem::TierId to,
                                   mig::CopyMode mode) {
  mig::MigrationRequest req;
  req.vpn = view.as->vpn_at(page);
  req.to = to;
  req.mode = mode;
  const auto owner = view.as->tables().exclusive_owner(req.vpn);
  req.shared = !owner.has_value();
  req.owner = owner.value_or(0);
  req.write_intensive = view.tracker->write_intensive(page);
  req.heat = view.tracker->heat(page);
  return req;
}

void record_decision(const WorkloadView& view, mig::MigrationRequest& req,
                     const DecisionContext& ctx) {
  const vm::Pte pte = view.as->tables().get(req.vpn);
  const std::int32_t from =
      pte.present() ? static_cast<std::int32_t>(mem::tier_of(pte.pfn())) : -1;
  // Sign convention, pinned: benefit is positive iff the issuing policy
  // predicts the move is profitable. Direction comes from the page's live
  // tier, not "to == fast" — a tier-2 -> tier-1 move under a >2-tier
  // topology is a promotion even though its destination is not the fast
  // tier. Unmapped pages (from == -1) fall back to the destination.
  const bool promotion = from >= 0
                             ? static_cast<std::int32_t>(req.to) < from
                             : req.to == mem::kFastTier;
  req.predicted_benefit = promotion ? req.heat - ctx.threshold
                                    : ctx.threshold - req.heat;
  if (!view.ledger || !view.ledger->enabled()) return;
  const std::uint64_t page = req.vpn - view.as->base_vpn();
  obs::DecisionFeatures features;
  features.heat = req.heat;
  features.rank = ctx.rank;
  features.threshold = ctx.threshold;
  features.queue_bias = ctx.queue_bias;
  features.predicted_benefit = req.predicted_benefit;
  req.provenance = view.ledger->record_decision(
      static_cast<std::int32_t>(view.index), page, from,
      static_cast<std::int32_t>(req.to), req.mode == mig::CopyMode::kSync,
      req.whole_chunk, features);
}

mig::MigrationRequest make_request(const WorkloadView& view,
                                   std::uint64_t page, mem::TierId to,
                                   mig::CopyMode mode,
                                   const DecisionContext& ctx) {
  mig::MigrationRequest req = make_request(view, page, to, mode);
  record_decision(view, req, ctx);
  return req;
}

TierHeatRanking::TierHeatRanking(const WorkloadView& view, mem::TierId tier,
                                 bool hottest_first) {
  // Heat values are non-negative floats, so the IEEE bit pattern orders
  // exactly like the value. Packing (heat bits, page) into one u64 key —
  // bits inverted for hottest-first — means ascending pops on plain
  // integers reproduce the old comparator's (heat, page-id tiebreak)
  // order without re-reading the tracker O(n log n) times. The page id in
  // the low bits makes every key unique, so the (unordered) incremental
  // residency list ranks the same way the old radix-walk sort did.
  const std::span<const std::uint32_t> members =
      view.as->pages_in_tier_list(tier);
  keys_.reserve(members.size());
  const auto& tracker = *view.tracker;
  for (const std::uint32_t page : members) {
    std::uint32_t heat_bits = std::bit_cast<std::uint32_t>(
        static_cast<float>(tracker.heat(page)));
    if (hottest_first) heat_bits = ~heat_bits;
    keys_.push_back((static_cast<std::uint64_t>(heat_bits) << 32) | page);
  }
  std::make_heap(keys_.begin(), keys_.end(), std::greater<std::uint64_t>{});
}

std::uint64_t TierHeatRanking::next() {
  std::pop_heap(keys_.begin(), keys_.end(), std::greater<std::uint64_t>{});
  const std::uint64_t key = keys_.back();
  keys_.pop_back();
  return key & 0xFFFFFFFFull;
}

}  // namespace vulcan::policy
