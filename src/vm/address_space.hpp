// Per-process address space: a contiguous anonymous region (the workload's
// resident set) backed by the tiered topology, demand-faulted, optionally
// THP-mapped, translated through a ReplicatedPageTable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/topology.hpp"
#include "vm/replicated_page_table.hpp"
#include "vm/types.hpp"

namespace vulcan::vm {

class AddressSpace {
 public:
  struct Config {
    ProcessId pid = 0;
    std::uint64_t rss_pages = 0;
    /// Heap-like base so radix walks exercise realistic upper indices.
    VirtAddr base = 0x5599'0000'0000ULL;
    /// Transparent huge pages: fault whole 2 MB chunks and use 2 MB TLB
    /// entries until a chunk is split (Vulcan splits on promotion).
    bool thp = true;
    /// Per-thread page-table replication on/off (Vulcan vs vanilla).
    bool replicate_tables = true;
  };

  /// Per-2MB-chunk mapping state.
  enum class ChunkState : std::uint8_t {
    kUnfaulted,   ///< nothing mapped yet
    kHuge,        ///< mapped as one 2 MB translation
    kBasePages,   ///< mapped (possibly partially) as 4 KB pages
  };

  AddressSpace(Config config, mem::Topology& topo);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  ProcessId pid() const { return config_.pid; }
  std::uint64_t rss_pages() const { return config_.rss_pages; }
  Vpn base_vpn() const { return vpn_of(config_.base); }
  bool contains(Vpn vpn) const {
    return vpn >= base_vpn() && vpn < base_vpn() + config_.rss_pages;
  }
  /// Translate a 0-based page offset into this space's vpn.
  Vpn vpn_at(std::uint64_t offset) const { return base_vpn() + offset; }

  /// Register a thread; returns its id (also registered with the tables).
  ThreadId add_thread() { return tables_.add_thread(); }
  unsigned thread_count() const { return tables_.thread_count(); }

  /// True if `vpn` has a present mapping.
  bool mapped(Vpn vpn) const { return tables_.get(vpn).present(); }

  /// Demand-fault `vpn` (and, under THP, its whole chunk) into
  /// `preferred_tier`, falling back to slower tiers when full. Returns the
  /// PTE; owner is `thread`. No-op if already mapped.
  Pte fault(Vpn vpn, ThreadId thread, bool write,
            mem::TierId preferred_tier);

  /// Record an access to a mapped page (accessed/dirty bits + ownership).
  Pte access(Vpn vpn, ThreadId thread, bool write) {
    return tables_.record_access(vpn, thread, write);
  }

  /// Swap the backing frame (migration remap). Clears dirty, preserves
  /// ownership and other software bits. Returns the old PFN; the caller
  /// owns its disposal (free or shadow). Updates tier membership.
  mem::Pfn remap(Vpn vpn, mem::Pfn new_pfn);

  /// Clear the dirty bit (async copy engines re-arm write detection).
  void clear_dirty(Vpn vpn);
  /// Clear the accessed bit (page-table-scan profiling).
  void clear_accessed(Vpn vpn);

  ChunkState chunk_state(Vpn vpn) const;
  bool is_huge(Vpn vpn) const {
    return chunk_state(vpn) == ChunkState::kHuge;
  }

  /// Split the 2 MB chunk covering `vpn` into base pages (required before
  /// migrating one of its pages). Returns true if a split happened.
  bool split_chunk(Vpn vpn);

  /// Tear down every live mapping (workload departure): free each frame
  /// back to its tier, unmap it from all tables, and reset the chunk /
  /// residency / census bookkeeping to the just-constructed state. Returns
  /// the number of frames released. The caller owns TLB/PWC invalidation
  /// for the pid.
  std::uint64_t release_all();

  /// Collapse the chunk covering `vpn` back into a huge mapping
  /// (khugepaged-style), valid only when every page of the chunk is
  /// mapped and resident in one tier. Returns true on success.
  bool collapse_chunk(Vpn vpn);

  /// First vpn of the chunk covering `vpn`.
  Vpn chunk_base(Vpn vpn) const {
    return base_vpn() + chunk_index(vpn) * sim::kPagesPerHuge;
  }

  /// Pages of this space currently resident in `tier`.
  std::uint64_t pages_in_tier(mem::TierId tier) const {
    return pages_in_tier_list(tier).size();
  }
  /// Pages of this space currently mapped, in any tier.
  std::uint64_t faulted_pages() const {
    std::uint64_t pages = 0;
    for (const auto& members : tier_members_) pages += members.size();
    return pages;
  }

  /// The 0-based page offsets currently resident in `tier`, maintained
  /// incrementally on fault and remap. UNORDERED (swap-remove keeps the
  /// updates O(1)) — policies that need ranked pages sort a copy. Saves
  /// every policy's per-epoch radix walk over the whole table.
  std::span<const std::uint32_t> pages_in_tier_list(mem::TierId tier) const {
    static const std::vector<std::uint32_t> kEmpty;
    return tier < tier_members_.size() ? tier_members_[tier] : kEmpty;
  }

  ReplicatedPageTable& tables() { return tables_; }
  const ReplicatedPageTable& tables() const { return tables_; }
  mem::Topology& topology() { return *topo_; }

 private:
  Pte fault_one(Vpn vpn, ThreadId thread, bool write, mem::TierId preferred);
  std::optional<mem::Pfn> allocate_frame(mem::TierId preferred);
  std::size_t chunk_index(Vpn vpn) const {
    return static_cast<std::size_t>((vpn - base_vpn()) / sim::kPagesPerHuge);
  }

  /// Move `page` into `tier`'s membership list (from_tier < 0: new fault).
  void track_residency(std::uint64_t page, std::int32_t from_tier,
                       mem::TierId to_tier);

  Config config_;
  mem::Topology* topo_;
  ReplicatedPageTable tables_;
  std::vector<ChunkState> chunks_;
  /// Per-tier resident page offsets + each page's slot in its tier list
  /// (see pages_in_tier_list); slot values are meaningful only while the
  /// page is mapped. The one residency record: the page counts derive
  /// from it.
  std::vector<std::vector<std::uint32_t>> tier_members_;
  std::vector<std::uint32_t> member_slot_;
};

}  // namespace vulcan::vm
