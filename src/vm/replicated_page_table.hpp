// Per-thread page-table replication (Vulcan §3.4).
//
// One process owns a process-wide tree (the kernel's `process_pgd`) plus one
// upper-level tree per thread, all sharing the same last-level leaf tables.
// Leaf PTEs carry a 7-bit owner field (bits 52-58): the first thread to touch
// a page becomes its owner; a touch by any other thread flips the field to
// the all-ones "shared" sentinel. During migration this lets the shootdown
// controller target only the core of the exclusive owner for private pages
// instead of broadcasting to every core running the process.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "vm/page_table.hpp"

namespace vulcan::vm {

/// How much of the page-table structure is replicated per thread.
enum class ReplicationMode : std::uint8_t {
  /// Single process-wide tree (the vanilla kernel baseline). Ownership is
  /// still tracked in PTE bits so policies can be compared with the
  /// mechanism toggled off.
  kProcessWide,
  /// Vulcan §3.4: per-thread *upper* levels, shared last-level tables.
  /// One PTE write is visible to every thread; replication cost is only
  /// the (small) upper levels.
  kSharedLeaves,
  /// RadixVM-style full replication: every thread owns a complete tree
  /// including private leaf copies. Eliminates even leaf-level sharing but
  /// every PTE update must be propagated to all replicas — the scalability
  /// problem §6's related work cites.
  kFullReplica,
};

class ReplicatedPageTable {
 public:
  explicit ReplicatedPageTable(ReplicationMode mode)
      : mode_(mode) {}

  /// Legacy boolean form: true = Vulcan's shared-leaf replication.
  explicit ReplicatedPageTable(bool replicate = true)
      : mode_(replicate ? ReplicationMode::kSharedLeaves
                        : ReplicationMode::kProcessWide) {}

  /// Register a new thread; returns its ThreadId. When replication is on,
  /// the thread's upper tree is built and every existing leaf attached.
  /// At most 126 threads (0x7F is the shared sentinel).
  ThreadId add_thread();

  unsigned thread_count() const {
    return static_cast<unsigned>(thread_trees_.size());
  }
  ReplicationMode mode() const { return mode_; }

  /// Map a page: writes the PTE through the shared leaf, creating it (and
  /// attaching it to every tree) on demand.
  void map(Vpn vpn, Pte pte);

  /// Remove a mapping (leaf stays attached; entry becomes non-present).
  void unmap(Vpn vpn);

  /// Current PTE (non-present Pte{} if unmapped).
  Pte get(Vpn vpn) const { return process_.get(vpn); }

  /// Overwrite the PTE of a mapped page (visible through all trees).
  void set(Vpn vpn, Pte pte);

  /// Record an access by `thread`, updating accessed/dirty and the
  /// ownership field. Returns the post-access PTE. Precondition: mapped.
  Pte record_access(Vpn vpn, ThreadId thread, bool is_write);

  /// Leaf-hinted variant for the vm::Mmu hot path: `leaf` must be the
  /// shared leaf table covering `vpn` (a PWC hit). Skips the radix walks of
  /// record_access while performing the identical PTE update — under
  /// kProcessWide and kSharedLeaves the one in-place leaf write *is*
  /// write_everywhere; kFullReplica still propagates to every replica.
  Pte record_access_at(Vpn vpn, LeafTable& leaf, ThreadId thread,
                       bool is_write);

  /// The exclusive owning thread of `vpn`, or nullopt when the page is
  /// shared (or unmapped). Drives targeted TLB shootdowns.
  std::optional<ThreadId> exclusive_owner(Vpn vpn) const;

  /// Trees, for direct inspection and CR3-style walks.
  PageTable& process_table() { return process_; }
  const PageTable& process_table() const { return process_; }
  PageTable& thread_table(ThreadId t) { return thread_trees_[t]; }
  const PageTable& thread_table(ThreadId t) const { return thread_trees_[t]; }

  /// Total upper-level nodes across every tree: the replication memory
  /// overhead the paper's §3.6 discusses.
  std::uint64_t total_upper_nodes() const;

  /// Distinct shared leaf tables (process view).
  std::uint64_t shared_leaf_count() const { return process_.leaf_count(); }

  /// Total page-table nodes (upper + leaf, counting replicas) — the full
  /// memory footprint of the chosen replication mode, in 4 KB nodes.
  std::uint64_t total_nodes() const;

  /// PTE writes performed so far, including replica propagation under
  /// kFullReplica — the maintenance-cost side of the replication trade.
  std::uint64_t pte_write_ops() const { return pte_write_ops_; }

 private:
  LeafRef shared_leaf_for(Vpn vpn);
  /// Write `pte` for vpn through every tree per the replication mode.
  void write_everywhere(Vpn vpn, Pte pte);

  ReplicationMode mode_;
  PageTable process_;
  std::vector<PageTable> thread_trees_;
  std::uint64_t pte_write_ops_ = 0;
};

}  // namespace vulcan::vm
