#include "vm/mmu.hpp"

#include <bit>
#include <cassert>

namespace vulcan::vm {

Mmu::Mmu(Config config) : config_(config) {
  if (config_.cores == 0) config_.cores = 1;
  if (config_.pwc_slots < 2) config_.pwc_slots = 2;  // a 64-bit shift is UB
  // Round up to a power of two so pwc_index is a shift, not a modulo.
  config_.pwc_slots = std::bit_ceil(config_.pwc_slots);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(
                    static_cast<std::uint64_t>(config_.pwc_slots)));
  tlbs_.assign(config_.cores, Tlb(config_.tlb));
  pwc_.assign(config_.pwc_slots, PwcSlot{});
}

LeafTable* Mmu::pwc_walk(const AddressSpace& as, Vpn vpn) {
  if (!config_.pwc_enabled) {
    // Uncached: the plain 4-level walk, resolved to the leaf.
    return const_cast<LeafTable*>(as.tables().process_table().leaf_of(vpn));
  }
  const std::uint64_t key = pwc_key(as.pid(), vpn);
  PwcSlot& slot = pwc_[pwc_index(key)];
  if (slot.key == key) {
    ++pwc_stats_.hits;
    return slot.leaf;
  }
  ++pwc_stats_.misses;
  LeafTable* leaf =
      const_cast<LeafTable*>(as.tables().process_table().leaf_of(vpn));
  if (leaf) {
    // Negative results are never cached: a leaf appears the moment the
    // region is first faulted, and a stale "absent" entry would then shadow
    // it.
    slot.key = key;
    slot.leaf = leaf;
    ++pwc_stats_.installs;
  }
  return leaf;
}

Pte Mmu::walk(const AddressSpace& as, Vpn vpn) {
  const LeafTable* leaf = pwc_walk(as, vpn);
  return leaf ? leaf->get(PageTable::pte_index(vpn)) : Pte{};
}

Mmu::Translation Mmu::translate(AddressSpace& as, const Access& access,
                                const PlacementFn& place) {
  Translation result;
  const ProcessId pid = as.pid();
  const Vpn vpn = access.vpn;
  const unsigned idx = PageTable::pte_index(vpn);
  Tlb& tlb = tlbs_[access.core];
  LeafTable* leaf = pwc_walk(as, vpn);

  if (!tlb.lookup(pid, vpn)) {
    if (!leaf || !leaf->get(idx).present()) {
      as.fault(vpn, access.thread, access.is_write, place(vpn));
      result.faulted = true;
      leaf = pwc_walk(as, vpn);  // the fault created the leaf
    }
    // Install the walked translation (the PFN lets the invariant auditor
    // cross-check cached entries against the live page tables; huge
    // entries carry the chunk's first page as representative — leaf slot 0,
    // since address-space bases are 2 MB-aligned).
    if (as.is_huge(vpn)) {
      tlb.insert_huge(pid, vpn,
                      leaf ? leaf->get(0).pfn() : Tlb::kUnknownPfn);
    } else {
      tlb.insert(pid, vpn,
                 leaf ? leaf->get(idx).pfn() : Tlb::kUnknownPfn);
    }
  } else {
    result.tlb_hit = true;
    if (!leaf || !leaf->get(idx).present()) {
      // Stale-free by construction; defensive fault (should not happen).
      as.fault(vpn, access.thread, access.is_write, place(vpn));
      result.faulted = true;
      leaf = pwc_walk(as, vpn);
    }
  }

  if (leaf) {
    result.pte =
        as.tables().record_access_at(vpn, *leaf, access.thread,
                                     access.is_write);
  } else {
    // Fault could not establish a mapping (tiers exhausted — asserts in
    // debug builds). Fall through to the legacy path for bit-parity.
    result.pte = as.access(vpn, access.thread, access.is_write);
  }
  return result;
}

void Mmu::translate_batch(AddressSpace& as, std::span<const Access> batch,
                          const PlacementFn& place,
                          std::vector<Translation>& out,
                          const AccessHook& hook) {
  out.clear();
  out.reserve(batch.size());
  if (hook) {
    for (const Access& access : batch) {
      out.push_back(translate(as, access, place));
      hook(access, out.back());
    }
  } else {
    for (const Access& access : batch) {
      out.push_back(translate(as, access, place));
    }
  }
}

void Mmu::invalidate(CoreId initiator, std::span<const CoreId> targets,
                     ProcessId pid, Vpn vpn) {
  if (initiator < tlbs_.size()) tlbs_[initiator].invalidate(pid, vpn);
  for (const CoreId core : targets) {
    if (core < tlbs_.size()) tlbs_[core].invalidate(pid, vpn);
  }
  invalidate_pwc(pid, vpn);
}

void Mmu::invalidate(ProcessId pid, Vpn vpn) {
  for (auto& tlb : tlbs_) tlb.invalidate(pid, vpn);
  invalidate_pwc(pid, vpn);
}

void Mmu::invalidate_pwc(ProcessId pid, Vpn vpn) {
  const std::uint64_t key = pwc_key(pid, vpn);
  PwcSlot& slot = pwc_[pwc_index(key)];
  if (slot.key == key) {
    slot = PwcSlot{};
    ++pwc_stats_.invalidations;
  }
}

void Mmu::invalidate_process(ProcessId pid) {
  for (auto& tlb : tlbs_) tlb.invalidate_pid(pid);
  const std::uint64_t want = static_cast<std::uint64_t>(pid) + 1;
  for (auto& slot : pwc_) {
    if (slot.key != 0 && (slot.key >> 32) == want) {
      slot = PwcSlot{};
      ++pwc_stats_.invalidations;
    }
  }
}

void Mmu::for_each_pwc_entry(
    const std::function<void(const PwcEntryView&)>& fn) const {
  for (const PwcSlot& slot : pwc_) {
    if (slot.key == 0) continue;
    PwcEntryView view;
    view.pid = static_cast<ProcessId>((slot.key >> 32) - 1);
    view.chunk = slot.key & 0xFFFFFFFFULL;
    view.leaf = slot.leaf;
    fn(view);
  }
}

void Mmu::debug_poison_pwc(ProcessId pid, Vpn vpn, LeafTable* leaf) {
  const std::uint64_t key = pwc_key(pid, vpn);
  PwcSlot& slot = pwc_[pwc_index(key)];
  slot.key = key;
  slot.leaf = leaf;
}

}  // namespace vulcan::vm
