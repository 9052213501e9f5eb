// 4-level x86-64-style radix page table with shareable last-level tables.
//
// The tree mirrors the hardware layout: PGD -> PUD -> PMD -> PTE-level, nine
// index bits per level. The PTE level ("leaf tables", 512 entries covering
// 2 MB) is reference-counted and can be attached to several upper trees at
// once — the property Vulcan's per-thread page-table replication exploits:
// each thread gets private upper levels while all threads share the leaf
// tables, which hold the vast majority of page-table memory.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "vm/pte.hpp"
#include "vm/types.hpp"

namespace vulcan::vm {

/// One last-level page table: 512 PTEs covering a 2 MB-aligned VA range.
class LeafTable {
 public:
  static constexpr unsigned kEntries = 512;

  Pte get(unsigned idx) const { return Pte(slots_[idx]); }

  void set(unsigned idx, Pte pte) {
    const bool was = Pte(slots_[idx]).present();
    const bool now = pte.present();
    slots_[idx] = pte.raw();
    live_ += static_cast<int>(now) - static_cast<int>(was);
    // Mirror the hardware's upper-level accessed bit: the MMU sets the
    // PMD-entry A-bit on any translation through this table. Telescope-
    // style hierarchical profilers read and clear this summary to skip
    // entirely-idle 2 MB regions.
    region_accessed_ |= pte.accessed();
  }

  /// Number of present entries.
  unsigned live() const { return static_cast<unsigned>(live_); }

  /// Has any PTE in this table carried the accessed bit since the last
  /// clear_region_accessed()?
  bool region_accessed() const { return region_accessed_; }
  void clear_region_accessed() { region_accessed_ = false; }

 private:
  std::array<std::uint64_t, kEntries> slots_{};
  int live_ = 0;
  bool region_accessed_ = false;
};

using LeafRef = std::shared_ptr<LeafTable>;

/// Upper three levels of one page-table tree. Leaves are shared_ptr so that
/// several trees (process-wide + per-thread replicas) can reference the same
/// last-level tables.
class PageTable {
 public:
  PageTable();
  ~PageTable();
  PageTable(PageTable&&) noexcept;
  PageTable& operator=(PageTable&&) noexcept;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Read the PTE for `vpn`; non-present Pte{} if unmapped.
  Pte get(Vpn vpn) const;

  /// Write the PTE for `vpn`, creating upper nodes and an (owned) leaf table
  /// on demand.
  void set(Vpn vpn, Pte pte);

  /// The leaf table covering `vpn`, or nullptr.
  LeafTable* leaf_of(Vpn vpn);
  const LeafTable* leaf_of(Vpn vpn) const;

  /// Shared handle to the leaf covering `vpn` (nullptr if absent).
  LeafRef leaf_ref(Vpn vpn) const;

  /// Install an existing (shared) leaf table for the 2 MB range covering
  /// `vpn`, creating upper nodes as needed. Replaces any previous leaf.
  void attach_leaf(Vpn vpn, LeafRef leaf);

  /// Drop the leaf covering `vpn` from this tree (the leaf itself survives
  /// while other trees reference it).
  void detach_leaf(Vpn vpn);

  /// Visit every present mapping as (vpn, pte). Statically dispatched —
  /// the hot bulk-scan path (policies, audits, teardown).
  template <typename Fn>
  void visit(Fn&& fn) const;

  /// Visit every leaf table as (base vpn of its 2 MB range, table).
  template <typename Fn>
  void visit_leaves(Fn&& fn);

  /// Upper-level (PGD/PUD/PMD) node count — the memory that per-thread
  /// replication duplicates. The single PGD root is included.
  std::uint64_t upper_node_count() const;

  /// Distinct leaf tables referenced by this tree.
  std::uint64_t leaf_count() const;

  /// Total present mappings across all leaves.
  std::uint64_t mapping_count() const;

  // Radix index helpers (vpn has 36 significant bits for 48-bit VAs).
  static constexpr unsigned pgd_index(Vpn vpn) { return (vpn >> 27) & 0x1FF; }
  static constexpr unsigned pud_index(Vpn vpn) { return (vpn >> 18) & 0x1FF; }
  static constexpr unsigned pmd_index(Vpn vpn) { return (vpn >> 9) & 0x1FF; }
  static constexpr unsigned pte_index(Vpn vpn) { return vpn & 0x1FF; }

 private:
  struct Pmd {
    std::array<LeafRef, 512> leaves;
    unsigned live = 0;
  };
  struct Pud {
    std::array<std::unique_ptr<Pmd>, 512> pmds;
    unsigned live = 0;
  };
  struct Pgd {
    std::array<std::unique_ptr<Pud>, 512> puds;
    unsigned live = 0;
  };

  Pmd* pmd_of(Vpn vpn, bool create);
  const Pmd* pmd_of(Vpn vpn) const;

  std::unique_ptr<Pgd> root_;
};

template <typename Fn>
void PageTable::visit(Fn&& fn) const {
  for (unsigned gi = 0; gi < 512; ++gi) {
    const auto& pud = root_->puds[gi];
    if (!pud) continue;
    for (unsigned ui = 0; ui < 512; ++ui) {
      const auto& pmd = pud->pmds[ui];
      if (!pmd) continue;
      for (unsigned mi = 0; mi < 512; ++mi) {
        const LeafTable* leaf = pmd->leaves[mi].get();
        if (!leaf) continue;
        const Vpn base = (static_cast<Vpn>(gi) << 27) |
                         (static_cast<Vpn>(ui) << 18) |
                         (static_cast<Vpn>(mi) << 9);
        for (unsigned pi = 0; pi < LeafTable::kEntries; ++pi) {
          const Pte pte = leaf->get(pi);
          if (pte.present()) fn(base | pi, pte);
        }
      }
    }
  }
}

template <typename Fn>
void PageTable::visit_leaves(Fn&& fn) {
  for (unsigned gi = 0; gi < 512; ++gi) {
    const auto& pud = root_->puds[gi];
    if (!pud) continue;
    for (unsigned ui = 0; ui < 512; ++ui) {
      const auto& pmd = pud->pmds[ui];
      if (!pmd) continue;
      for (unsigned mi = 0; mi < 512; ++mi) {
        LeafTable* leaf = pmd->leaves[mi].get();
        if (!leaf) continue;
        const Vpn base = (static_cast<Vpn>(gi) << 27) |
                         (static_cast<Vpn>(ui) << 18) |
                         (static_cast<Vpn>(mi) << 9);
        fn(base, *leaf);
      }
    }
  }
}

}  // namespace vulcan::vm
