#include "policy/policy.hpp"

#include <algorithm>
#include <bit>

#include "obs/provenance.hpp"
#include "sim/radix_sort.hpp"

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
                                 bool hottest_first, double bound,
                                 std::uint64_t limit) {
  // Heat values are non-negative floats, so the IEEE bit pattern orders
  // exactly like the value. Packing (heat bits, page) into one u64 key —
  // bits inverted for hottest-first — means ascending keys on plain
  // integers reproduce the (heat, page-id tiebreak) ranking without
  // re-reading the tracker O(n log n) times. The page id in the low bits
  // makes every key unique, so the (unordered) incremental residency list
  // ranks the same way whatever its order. The tracker stores floats, so
  // the bound test on the double reading is monotone in the key: the
  // pages that pass are a prefix of the unbounded ranking.
  const std::span<const std::uint32_t> members =
      view.as->pages_in_tier_list(tier);
  keys_.reserve(members.size());
  const auto& tracker = *view.tracker;
  for (const std::uint32_t page : members) {
    const double heat = tracker.heat(page);
    if (hottest_first ? heat < bound : heat >= bound) continue;
    std::uint32_t heat_bits =
        std::bit_cast<std::uint32_t>(static_cast<float>(heat));
    if (hottest_first) heat_bits = ~heat_bits;
    keys_.push_back((static_cast<std::uint64_t>(heat_bits) << 32) | page);
  }
  if (keys_.size() > limit) {
    std::nth_element(keys_.begin(),
                     keys_.begin() + static_cast<std::ptrdiff_t>(limit),
                     keys_.end());
    keys_.resize(limit);
  }
}

std::uint64_t TierHeatRanking::next() {
  if (next_ == ordered_) {
    // Select the next window of smallest keys, then sort just that window.
    const std::size_t end = std::min(keys_.size(), ordered_ + window_);
    std::uint64_t* const first = keys_.data() + ordered_;
    std::uint64_t* const last = keys_.data() + end;
    if (end < keys_.size()) {
      std::nth_element(first, last - 1, keys_.data() + keys_.size());
    }
    scratch_.resize(end - ordered_);
    sim::radix_sort(first, scratch_.data(), end - ordered_);
    ordered_ = end;
    window_ *= 4;
  }
  return keys_[next_++] & 0xFFFFFFFFull;
}

}  // namespace vulcan::policy
