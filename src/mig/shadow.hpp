// Page shadowing (borrowed from Nomad, used by Vulcan's demotion path,
// §3.5): when a page is promoted to the fast tier, its old slow-tier frame
// is retained as a shadow copy instead of being freed. As long as the fast
// copy stays clean, a later demotion is a pure remap — no copy, no thrash.
// A write to a shadowed page invalidates the shadow (the copies diverged).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "mem/topology.hpp"
#include "vm/types.hpp"

namespace vulcan::mig {

class ShadowRegistry {
 public:
  struct Stats {
    std::uint64_t installed = 0;
    std::uint64_t invalidated = 0;
    std::uint64_t consumed = 0;  ///< demotions satisfied by remap
    std::uint64_t evicted = 0;   ///< dropped to reclaim slow-tier frames
  };

  explicit ShadowRegistry(mem::Topology& topo) : topo_(&topo) {}
  ~ShadowRegistry() { clear(); }
  ShadowRegistry(const ShadowRegistry&) = delete;
  ShadowRegistry& operator=(const ShadowRegistry&) = delete;

  /// Install `slow_pfn` as the shadow of `vpn`. Takes ownership of the
  /// frame. Replaces (and frees) any existing shadow.
  void install(vm::Vpn vpn, mem::Pfn slow_pfn) {
    invalidate(vpn);
    shadows_.emplace(vpn, slow_pfn);
    ++stats_.installed;
  }

  /// Does `vpn` have a live shadow?
  bool has(vm::Vpn vpn) const { return shadows_.contains(vpn); }

  std::optional<mem::Pfn> peek(vm::Vpn vpn) const {
    const auto it = shadows_.find(vpn);
    return it == shadows_.end() ? std::nullopt
                                : std::optional<mem::Pfn>(it->second);
  }

  /// Consume the shadow for a remap-demotion: ownership of the frame
  /// transfers to the caller (who remaps the page onto it).
  std::optional<mem::Pfn> consume(vm::Vpn vpn) {
    const auto it = shadows_.find(vpn);
    if (it == shadows_.end()) return std::nullopt;
    const mem::Pfn pfn = it->second;
    shadows_.erase(it);
    ++stats_.consumed;
    return pfn;
  }

  /// Drop the shadow because the fast copy was written (divergence).
  /// Hot path: the write hook calls this for every simulated write, and
  /// most epochs hold no shadows at all — skip the hash probe outright.
  void invalidate(vm::Vpn vpn) {
    if (shadows_.empty()) return;
    const auto it = shadows_.find(vpn);
    if (it == shadows_.end()) return;
    topo_->allocator(mem::tier_of(it->second)).free(it->second);
    shadows_.erase(it);
    ++stats_.invalidated;
  }

  /// Free every shadow (used on teardown and under slow-tier pressure).
  void clear() {
    for (const auto& [vpn, pfn] : shadows_) {
      topo_->allocator(mem::tier_of(pfn)).free(pfn);
      ++stats_.evicted;
    }
    shadows_.clear();
  }

  std::size_t size() const { return shadows_.size(); }
  const Stats& stats() const { return stats_; }

  /// Visit every live shadow as (vpn, pfn). Iteration order is the hash
  /// map's — use only for order-independent aggregation (audits).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [vpn, pfn] : shadows_) fn(vpn, pfn);
  }

 private:
  mem::Topology* topo_;
  std::unordered_map<vm::Vpn, mem::Pfn> shadows_;
  Stats stats_;
};

}  // namespace vulcan::mig
