#include "vm/page_table.hpp"

namespace vulcan::vm {

PageTable::PageTable() : root_(std::make_unique<Pgd>()) {}
PageTable::~PageTable() = default;
PageTable::PageTable(PageTable&&) noexcept = default;
PageTable& PageTable::operator=(PageTable&&) noexcept = default;

PageTable::Pmd* PageTable::pmd_of(Vpn vpn, bool create) {
  auto& pud_slot = root_->puds[pgd_index(vpn)];
  if (!pud_slot) {
    if (!create) return nullptr;
    pud_slot = std::make_unique<Pud>();
    ++root_->live;
  }
  auto& pmd_slot = pud_slot->pmds[pud_index(vpn)];
  if (!pmd_slot) {
    if (!create) return nullptr;
    pmd_slot = std::make_unique<Pmd>();
    ++pud_slot->live;
  }
  return pmd_slot.get();
}

const PageTable::Pmd* PageTable::pmd_of(Vpn vpn) const {
  const auto& pud_slot = root_->puds[pgd_index(vpn)];
  if (!pud_slot) return nullptr;
  return pud_slot->pmds[pud_index(vpn)].get();
}

Pte PageTable::get(Vpn vpn) const {
  const Pmd* pmd = pmd_of(vpn);
  if (!pmd) return Pte{};
  const LeafRef& leaf = pmd->leaves[pmd_index(vpn)];
  return leaf ? leaf->get(pte_index(vpn)) : Pte{};
}

void PageTable::set(Vpn vpn, Pte pte) {
  Pmd* pmd = pmd_of(vpn, /*create=*/true);
  LeafRef& leaf = pmd->leaves[pmd_index(vpn)];
  if (!leaf) {
    leaf = std::make_shared<LeafTable>();
    ++pmd->live;
  }
  leaf->set(pte_index(vpn), pte);
}

LeafTable* PageTable::leaf_of(Vpn vpn) {
  Pmd* pmd = pmd_of(vpn, /*create=*/false);
  return pmd ? pmd->leaves[pmd_index(vpn)].get() : nullptr;
}

const LeafTable* PageTable::leaf_of(Vpn vpn) const {
  const Pmd* pmd = pmd_of(vpn);
  return pmd ? pmd->leaves[pmd_index(vpn)].get() : nullptr;
}

LeafRef PageTable::leaf_ref(Vpn vpn) const {
  const Pmd* pmd = pmd_of(vpn);
  return pmd ? pmd->leaves[pmd_index(vpn)] : nullptr;
}

void PageTable::attach_leaf(Vpn vpn, LeafRef leaf) {
  Pmd* pmd = pmd_of(vpn, /*create=*/true);
  LeafRef& slot = pmd->leaves[pmd_index(vpn)];
  if (!slot && leaf) ++pmd->live;
  if (slot && !leaf) --pmd->live;
  slot = std::move(leaf);
}

void PageTable::detach_leaf(Vpn vpn) {
  Pmd* pmd = pmd_of(vpn, /*create=*/false);
  if (!pmd) return;
  LeafRef& slot = pmd->leaves[pmd_index(vpn)];
  if (slot) {
    slot.reset();
    --pmd->live;
  }
}

std::uint64_t PageTable::upper_node_count() const {
  std::uint64_t nodes = 1;  // the PGD itself
  for (const auto& pud : root_->puds) {
    if (!pud) continue;
    ++nodes;
    for (const auto& pmd : pud->pmds) {
      if (pmd) ++nodes;
    }
  }
  return nodes;
}

std::uint64_t PageTable::leaf_count() const {
  std::uint64_t leaves = 0;
  for (const auto& pud : root_->puds) {
    if (!pud) continue;
    for (const auto& pmd : pud->pmds) {
      if (pmd) leaves += pmd->live;
    }
  }
  return leaves;
}

std::uint64_t PageTable::mapping_count() const {
  std::uint64_t total = 0;
  for (const auto& pud : root_->puds) {
    if (!pud) continue;
    for (const auto& pmd : pud->pmds) {
      if (!pmd) continue;
      for (const auto& leaf : pmd->leaves) {
        if (leaf) total += leaf->live();
      }
    }
  }
  return total;
}

}  // namespace vulcan::vm
