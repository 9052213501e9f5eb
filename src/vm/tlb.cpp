#include "vm/tlb.hpp"

#include <algorithm>

namespace vulcan::vm {

namespace {
unsigned set_count(unsigned entries, unsigned ways) {
  const unsigned sets = std::max(1u, entries / std::max(1u, ways));
  // Round down to a power of two so indexing can mask.
  unsigned pow2 = 1;
  while (pow2 * 2 <= sets) pow2 *= 2;
  return pow2;
}
}  // namespace

Tlb::Tlb(Config config) : config_(config) {
  base_.sets = set_count(config_.base_entries, config_.ways);
  base_.ways = config_.ways;
  base_.entries.assign(static_cast<std::size_t>(base_.sets) * base_.ways, {});
  huge_.sets = set_count(config_.huge_entries, config_.ways);
  huge_.ways = config_.ways;
  huge_.entries.assign(static_cast<std::size_t>(huge_.sets) * huge_.ways, {});
}

bool Tlb::SetArray::lookup(std::uint64_t tag, std::uint64_t tick) {
  const std::size_t set = (tag ^ (tag >> 17)) & (sets - 1);
  Entry* row = &entries[set * ways];
  for (unsigned w = 0; w < ways; ++w) {
    if (row[w].tag == tag) {
      row[w].lru = tick;
      return true;
    }
  }
  return false;
}

void Tlb::SetArray::insert(std::uint64_t tag, std::uint64_t tick,
                           std::uint64_t pfn) {
  const std::size_t set = (tag ^ (tag >> 17)) & (sets - 1);
  Entry* row = &entries[set * ways];
  Entry* victim = &row[0];
  for (unsigned w = 0; w < ways; ++w) {
    if (row[w].tag == tag) {  // refresh existing
      row[w].lru = tick;
      row[w].pfn = pfn;
      return;
    }
    if (row[w].tag == 0) {  // free slot wins immediately
      victim = &row[w];
      break;
    }
    if (row[w].lru < victim->lru) victim = &row[w];
  }
  victim->tag = tag;
  victim->lru = tick;
  victim->pfn = pfn;
}

void Tlb::SetArray::invalidate(std::uint64_t tag) {
  const std::size_t set = (tag ^ (tag >> 17)) & (sets - 1);
  Entry* row = &entries[set * ways];
  for (unsigned w = 0; w < ways; ++w) {
    if (row[w].tag == tag) {
      row[w] = Entry{};
      return;
    }
  }
}

void Tlb::SetArray::clear() {
  std::fill(entries.begin(), entries.end(), Entry{});
}

bool Tlb::lookup(ProcessId pid, Vpn vpn) {
  ++tick_;
  const bool hit = base_.lookup(make_tag(pid, vpn), tick_) ||
                   huge_.lookup(make_tag(pid, huge_chunk_of(vpn)), tick_);
  (hit ? obs_hits_ : obs_misses_)->inc();
  return hit;
}

void Tlb::insert(ProcessId pid, Vpn vpn, std::uint64_t pfn) {
  base_.insert(make_tag(pid, vpn), ++tick_, pfn);
}

void Tlb::insert_huge(ProcessId pid, Vpn vpn, std::uint64_t chunk_pfn) {
  huge_.insert(make_tag(pid, huge_chunk_of(vpn)), ++tick_, chunk_pfn);
}

void Tlb::invalidate(ProcessId pid, Vpn vpn) {
  base_.invalidate(make_tag(pid, vpn));
  huge_.invalidate(make_tag(pid, huge_chunk_of(vpn)));
  obs_invalidations_->inc();
}

void Tlb::invalidate_pid(ProcessId pid) {
  const std::uint64_t want = static_cast<std::uint64_t>(pid) + 1;
  const auto sweep = [&](SetArray& arr) {
    for (Entry& e : arr.entries) {
      if (e.tag != 0 && (e.tag >> 40) == want) {
        e = Entry{};
        obs_invalidations_->inc();
      }
    }
  };
  sweep(base_);
  sweep(huge_);
}

void Tlb::flush_all() {
  base_.clear();
  huge_.clear();
  obs_full_flushes_->inc();
}

}  // namespace vulcan::vm
