#include "vm/address_space.hpp"

#include <cassert>
#include <utility>

namespace vulcan::vm {

AddressSpace::AddressSpace(Config config, mem::Topology& topo)
    : config_(config),
      topo_(&topo),
      tables_(config.replicate_tables),
      tier_members_(topo.tier_count()),
      member_slot_(config.rss_pages, 0) {
  assert(config_.base % sim::kHugePageSize == 0 &&
         "base must be 2MB-aligned for THP chunk bookkeeping");
  const std::size_t chunk_count = static_cast<std::size_t>(
      (config_.rss_pages + sim::kPagesPerHuge - 1) / sim::kPagesPerHuge);
  chunks_.assign(chunk_count, ChunkState::kUnfaulted);
}

AddressSpace::~AddressSpace() {
  // Return every live frame to its tier.
  tables_.process_table().visit([&](Vpn, Pte pte) {
    topo_->allocator(mem::tier_of(pte.pfn())).free(pte.pfn());
  });
}

std::optional<mem::Pfn> AddressSpace::allocate_frame(mem::TierId preferred) {
  if (auto pfn = topo_->allocator(preferred).allocate()) return pfn;
  // Fall back through the remaining tiers, fastest first.
  for (std::size_t t = 0; t < topo_->tier_count(); ++t) {
    if (t == preferred) continue;
    if (auto pfn = topo_->allocator(static_cast<mem::TierId>(t)).allocate()) {
      return pfn;
    }
  }
  return std::nullopt;
}

Pte AddressSpace::fault_one(Vpn vpn, ThreadId thread, bool write,
                            mem::TierId preferred) {
  const Pte existing = tables_.get(vpn);
  if (existing.present()) return existing;
  const auto pfn = allocate_frame(preferred);
  assert(pfn && "tiered memory exhausted — size workloads within capacity");
  if (!pfn) return Pte{};
  Pte pte = Pte::make(*pfn, /*writable=*/true, thread)
                .with(Pte::kAccessed)
                .with(Pte::kDirty, write);
  tables_.map(vpn, pte);
  track_residency(vpn - base_vpn(), -1, mem::tier_of(*pfn));
  return pte;
}

void AddressSpace::track_residency(std::uint64_t page, std::int32_t from_tier,
                                   mem::TierId to_tier) {
  if (from_tier >= 0) {
    if (from_tier == to_tier) return;
    // Swap-remove from the old tier's list; patch the moved page's slot.
    std::vector<std::uint32_t>& from =
        tier_members_[static_cast<std::size_t>(from_tier)];
    const std::uint32_t slot = member_slot_[page];
    from[slot] = from.back();
    member_slot_[from[slot]] = slot;
    from.pop_back();
  }
  std::vector<std::uint32_t>& to = tier_members_[to_tier];
  member_slot_[page] = static_cast<std::uint32_t>(to.size());
  to.push_back(static_cast<std::uint32_t>(page));
}

Pte AddressSpace::fault(Vpn vpn, ThreadId thread, bool write,
                        mem::TierId preferred) {
  assert(contains(vpn));
  const std::size_t ci = chunk_index(vpn);
  const Vpn chunk_base = base_vpn() + ci * sim::kPagesPerHuge;
  const bool whole_chunk_in_rss =
      chunk_base + sim::kPagesPerHuge <= base_vpn() + config_.rss_pages;

  if (config_.thp && chunks_[ci] == ChunkState::kUnfaulted &&
      whole_chunk_in_rss) {
    // THP fault: populate the entire 2 MB chunk from one tier so the single
    // huge translation is meaningful. The allocator may fall back to
    // another tier mid-chunk when `preferred` runs dry; a huge mapping
    // cannot straddle tiers (one translation, one physical extent), so such
    // a chunk must stay base-paged until khugepaged-style collapse can
    // establish co-residency.
    Pte result{};
    std::optional<mem::TierId> tier;
    bool single_extent = true;
    for (std::uint64_t i = 0; i < sim::kPagesPerHuge; ++i) {
      const Vpn v = chunk_base + i;
      const Pte pte = fault_one(v, thread, write && v == vpn, preferred);
      if (v == vpn) result = pte;
      if (!pte.present()) {
        single_extent = false;  // allocation failed: partial chunk
        continue;
      }
      const mem::TierId t = mem::tier_of(pte.pfn());
      if (!tier.has_value()) {
        tier = t;
      } else if (*tier != t) {
        single_extent = false;  // fallback split the chunk across tiers
      }
    }
    chunks_[ci] = single_extent && tier.has_value() ? ChunkState::kHuge
                                                    : ChunkState::kBasePages;
    return result;
  }

  if (chunks_[ci] == ChunkState::kUnfaulted) {
    chunks_[ci] = ChunkState::kBasePages;
  }
  return fault_one(vpn, thread, write, preferred);
}

mem::Pfn AddressSpace::remap(Vpn vpn, mem::Pfn new_pfn) {
  const Pte pte = tables_.get(vpn);
  assert(pte.present() && "remap of unmapped page");
  const mem::Pfn old_pfn = pte.pfn();
  tables_.set(vpn, pte.with_pfn(new_pfn).with(Pte::kDirty, false));
  track_residency(vpn - base_vpn(),
                  static_cast<std::int32_t>(mem::tier_of(old_pfn)),
                  mem::tier_of(new_pfn));
  return old_pfn;
}

void AddressSpace::clear_dirty(Vpn vpn) {
  const Pte pte = tables_.get(vpn);
  if (pte.present()) tables_.set(vpn, pte.with(Pte::kDirty, false));
}

void AddressSpace::clear_accessed(Vpn vpn) {
  const Pte pte = tables_.get(vpn);
  if (pte.present()) tables_.set(vpn, pte.with(Pte::kAccessed, false));
}

AddressSpace::ChunkState AddressSpace::chunk_state(Vpn vpn) const {
  if (!contains(vpn)) return ChunkState::kUnfaulted;
  return chunks_[chunk_index(vpn)];
}

bool AddressSpace::collapse_chunk(Vpn vpn) {
  if (!contains(vpn)) return false;
  const std::size_t ci = chunk_index(vpn);
  if (chunks_[ci] != ChunkState::kBasePages) return false;
  const Vpn base = chunk_base(vpn);
  if (base + sim::kPagesPerHuge > base_vpn() + config_.rss_pages) {
    return false;  // tail chunk: cannot form a full 2 MB mapping
  }
  // One leaf covers the whole 2 MB chunk — read it directly instead of
  // paying 512 full radix walks.
  const LeafTable* leaf = tables_.process_table().leaf_of(base);
  if (!leaf) return false;
  std::optional<mem::TierId> tier;
  for (std::uint64_t i = 0; i < sim::kPagesPerHuge; ++i) {
    const Pte pte = leaf->get(static_cast<unsigned>(i));
    if (!pte.present()) return false;
    const mem::TierId t = mem::tier_of(pte.pfn());
    if (tier.has_value() && *tier != t) return false;  // straddles tiers
    tier = t;
  }
  chunks_[ci] = ChunkState::kHuge;
  return true;
}

std::uint64_t AddressSpace::release_all() {
  // Collect the live mappings first: unmap mutates the radix tree while
  // visit walks it.
  std::vector<std::pair<Vpn, mem::Pfn>> live;
  live.reserve(static_cast<std::size_t>(faulted_pages()));
  tables_.process_table().visit([&](Vpn vpn, Pte pte) {
    live.emplace_back(vpn, pte.pfn());
  });
  for (const auto& [vpn, pfn] : live) {
    topo_->allocator(mem::tier_of(pfn)).free(pfn);
    tables_.unmap(vpn);
  }
  chunks_.assign(chunks_.size(), ChunkState::kUnfaulted);
  for (auto& members : tier_members_) members.clear();
  return static_cast<std::uint64_t>(live.size());
}

bool AddressSpace::split_chunk(Vpn vpn) {
  if (!contains(vpn)) return false;
  const std::size_t ci = chunk_index(vpn);
  if (chunks_[ci] != ChunkState::kHuge) return false;
  chunks_[ci] = ChunkState::kBasePages;
  return true;
}

}  // namespace vulcan::vm
