// vm::Mmu — the single translation facade for the simulator's hot path.
//
// Historically the engine, migrator and auditor each drove the three
// translation mechanisms directly: per-core vm::Tlb lookups, 4-level
// vm::PageTable radix walks, and vm::ReplicatedPageTable access recording.
// The Mmu collapses those parallel entry points behind one API:
//
//   translate()        one access: TLB lookup -> (on miss) PWC-accelerated
//                      walk -> demand fault via callback -> TLB fill ->
//                      accessed/dirty/ownership recording.
//   translate_batch()  the same over a vector of accesses (Memtis-style
//                      batched consumption of the access stream).
//   walk()             translation-only radix walk through the PWC, no TLB
//                      or A/D side effects (migrator inspection path).
//   invalidate()       coherence: drop TLB entries on the shootdown target
//                      set and the PWC entry for the covering chunk.
//
// The page-walk cache (PWC) memoises the upper three radix levels: it maps
// (pid, 2 MB chunk) to the process tree's leaf table, so a hit replaces a
// PGD->PUD->PMD pointer chase with one array probe. It is a *host-side*
// implementation cache: the cost model still charges the full
// tlb_miss_walk() on every TLB miss, so simulated time, counters and
// artefacts are bit-identical with the PWC on or off (the differential
// fuzz oracle enforces this). Leaf pointers in the process tree are stable
// for the lifetime of a mapping, and every PTE write goes through the
// shared leaf in place, so cached entries can never serve stale PTE bits;
// invalidation on shootdown / chunk split / collapse conservatively drops
// entries anyway, and the check::kPwcCoherence audit rule cross-validates
// every cached leaf pointer against a fresh walk.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "vm/address_space.hpp"
#include "vm/tlb.hpp"
#include "vm/types.hpp"

namespace vulcan::vm {

class Mmu {
 public:
  struct Config {
    /// One TLB per core.
    unsigned cores = 1;
    Tlb::Config tlb{};
    /// Software page-walk cache on/off. Behavior-neutral by contract.
    bool pwc_enabled = true;
    /// Direct-mapped PWC slots (power of two).
    unsigned pwc_slots = 256;
  };

  /// PWC effectiveness counters. Deliberately *not* registry-backed: the
  /// PWC is a host-side cache and must not perturb serialized artefacts.
  struct PwcStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t installs = 0;
    std::uint64_t invalidations = 0;
  };

  /// One access to translate.
  struct Access {
    Vpn vpn = 0;
    CoreId core = 0;
    ThreadId thread = 0;
    bool is_write = false;
  };

  /// Outcome of one translated access.
  struct Translation {
    Pte pte{};          ///< post-access PTE (accessed/dirty/owner updated)
    bool tlb_hit = false;
    bool faulted = false;  ///< a demand fault ran during this translation
  };

  /// Chooses the placement tier for a demand fault (the policy hook).
  using PlacementFn = std::function<mem::TierId(Vpn)>;
  /// Invoked after each access is translated and recorded, in stream
  /// order — the engine's write-detection hook (shadow invalidation must
  /// interleave exactly as in the single-event pipeline, because dropping
  /// a shadow returns its frame to the allocator).
  using AccessHook = std::function<void(const Access&, const Translation&)>;

  explicit Mmu(Config config);

  /// Translate one access against `as`: TLB lookup, walk + optional demand
  /// fault on miss, TLB fill, and accessed/dirty/ownership recording.
  /// Mirrors the legacy engine loop exactly (same stats, same PTE writes).
  Translation translate(AddressSpace& as, const Access& access,
                        const PlacementFn& place);

  /// Translate a batch in stream order, appending one Translation per
  /// access to `out` (cleared first). `hook`, when set, runs after each
  /// access in order.
  void translate_batch(AddressSpace& as, std::span<const Access> batch,
                       const PlacementFn& place,
                       std::vector<Translation>& out,
                       const AccessHook& hook = nullptr);

  /// Translation-only PWC-accelerated walk of the process tree. No TLB
  /// interaction, no A/D recording. Non-present Pte{} if unmapped.
  Pte walk(const AddressSpace& as, Vpn vpn);

  /// Coherence: drop the translation for (pid, vpn) from the initiator's
  /// and every target core's TLB, plus the PWC entry for its chunk — the
  /// shootdown controller's invalidation shape.
  void invalidate(CoreId initiator, std::span<const CoreId> targets,
                  ProcessId pid, Vpn vpn);

  /// Broadcast form: every core's TLB plus the PWC.
  void invalidate(ProcessId pid, Vpn vpn);

  /// Drop only the PWC entry covering `vpn` (chunk split/collapse: the
  /// translations themselves survive, but the cached partial walk is
  /// conservatively discarded).
  void invalidate_pwc(ProcessId pid, Vpn vpn);

  /// Process teardown (workload departure): drop every TLB entry on every
  /// core and every PWC entry belonging to `pid`, so no stale translation
  /// for a released address space survives anywhere in the hierarchy.
  void invalidate_process(ProcessId pid);

  bool pwc_enabled() const { return config_.pwc_enabled; }
  const PwcStats& pwc_stats() const { return pwc_stats_; }

  /// Per-core TLBs. The auditor and fault-injection tests reach the
  /// underlying structures through these.
  std::vector<Tlb>& tlbs() { return tlbs_; }
  const std::vector<Tlb>& tlbs() const { return tlbs_; }
  Tlb& tlb(CoreId core) { return tlbs_[core]; }

  /// Attach observability to every TLB (they share one scope, so the
  /// registry aggregates across the socket, as before).
  void set_obs(const obs::Scope& scope) {
    for (auto& t : tlbs_) t.set_obs(scope);
  }

  /// One live PWC entry, decoded for the invariant auditor.
  struct PwcEntryView {
    ProcessId pid = 0;
    Vpn chunk = 0;  ///< global 2 MB chunk number (vpn >> 9)
    const LeafTable* leaf = nullptr;
  };

  /// Visit every live PWC entry. Auditor hook: each cached leaf pointer
  /// must match a fresh process-tree walk (check::kPwcCoherence).
  void for_each_pwc_entry(
      const std::function<void(const PwcEntryView&)>& fn) const;

  /// Fault-injection hook (tests only): install `leaf` for (pid, chunk of
  /// vpn) regardless of the real tree, so a seeded stale entry provably
  /// trips the check::kPwcCoherence auditor rule.
  void debug_poison_pwc(ProcessId pid, Vpn vpn, LeafTable* leaf);

 private:
  struct PwcSlot {
    std::uint64_t key = 0;  ///< ((pid + 1) << 32) | chunk; 0 == empty
    LeafTable* leaf = nullptr;
  };

  static std::uint64_t pwc_key(ProcessId pid, Vpn vpn) {
    return ((static_cast<std::uint64_t>(pid) + 1) << 32) | (vpn >> 9);
  }
  std::size_t pwc_index(std::uint64_t key) const {
    // Fibonacci hashing spreads sequential chunk numbers across the
    // direct-mapped array.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  /// Leaf for (pid, vpn) via the PWC, walking + installing on miss.
  /// Returns nullptr when no leaf exists yet (untouched 2 MB region).
  LeafTable* pwc_walk(const AddressSpace& as, Vpn vpn);

  Config config_;
  std::vector<Tlb> tlbs_;
  std::vector<PwcSlot> pwc_;
  unsigned shift_ = 56;  // 64 - log2(pwc_slots)
  PwcStats pwc_stats_;
};

}  // namespace vulcan::vm
