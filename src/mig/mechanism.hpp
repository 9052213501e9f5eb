// Migration mechanism cost composition: the five phases of §2.1's
// mechanism description (kernel trap, PTE lock/unmap, TLB shootdown via
// IPIs, content copy, PTE remap). This header is the only code that adds
// up a migration's phase costs: the Migrator charges page_move() and
// chunk_move() phase by phase, the AdmissionController predicts their
// total(), and the Fig. 2, 3 and 7 harnesses print them.
//
// Vulcan's two mechanism-level optimisations are switches:
//
//   optimized_prep       drop the cross-CPU lru_add_drain_all() broadcast
//                        (workload-dependent migration, §3.2)
//   targeted_shootdown   shoot only the sharer set proven by per-thread
//                        page tables instead of every process core (§3.4)
//
// Everything here is pure cost arithmetic over the calibrated CostModel;
// the Migrator pairs it with real page-table/TLB state updates.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/cost_model.hpp"

namespace vulcan::mig {

struct MechanismOptions {
  bool optimized_prep = false;
  bool targeted_shootdown = false;
  /// Online CPUs participating in baseline preparation (lru_add_drain_all
  /// broadcasts to ALL online CPUs, not just the process's).
  unsigned online_cpus = 32;
};

/// Per-phase cycle breakdown of one migration operation.
struct PhaseBreakdown {
  sim::Cycles prep = 0;
  sim::Cycles unmap = 0;
  sim::Cycles shootdown = 0;
  sim::Cycles copy = 0;
  sim::Cycles remap = 0;

  sim::Cycles total() const { return prep + unmap + shootdown + copy + remap; }
  double prep_share() const {
    const auto t = total();
    return t ? static_cast<double>(prep) / static_cast<double>(t) : 0.0;
  }
  double shootdown_share() const {
    const auto t = total();
    return t ? static_cast<double>(shootdown) / static_cast<double>(t) : 0.0;
  }
};

/// What a move's copy phase does: a CPU copy, a DMA descriptor setup
/// (HeMem-style offload: the engine streams the page while the CPU only
/// queues it), or no copy (a clean demotion remapped onto its shadow).
enum class CopyKind : std::uint8_t { kCpu, kDma, kNone };

// The two compositions of a live move leave `prep` at 0: the migrator pays
// preparation once per execute() batch, not per request.

/// One base page through the cold single-page path (the Fig. 2 regime),
/// flushing `targets` remote cores.
inline PhaseBreakdown page_move(const sim::CostModel& cost, unsigned targets,
                                CopyKind copy) {
  PhaseBreakdown b;
  b.unmap = cost.unmap(1);
  b.shootdown = cost.shootdown_cold(targets);
  b.copy = copy == CopyKind::kCpu   ? cost.copy_single()
           : copy == CopyKind::kDma ? cost.params().dma_setup_cycles
                                    : 0;
  b.remap = cost.remap(1);
  return b;
}

/// One 2 MB chunk's `pages` pages through the steady-state batched path
/// (the Fig. 3 regime): amortised unmap, copy and remap, and one
/// overlapped flush round to `targets` remote cores.
inline PhaseBreakdown chunk_move(const sim::CostModel& cost,
                                 std::uint64_t pages, unsigned targets,
                                 CopyKind copy) {
  PhaseBreakdown b;
  b.unmap = cost.unmap_batched(pages);
  b.shootdown = cost.shootdown_batched(pages, targets);
  b.copy = copy == CopyKind::kCpu   ? cost.copy_batched(pages)
           : copy == CopyKind::kDma ? pages * cost.params().dma_setup_cycles
                                    : 0;
  b.remap = cost.remap_batched(pages);
  return b;
}

class MigrationMechanism {
 public:
  MigrationMechanism(const sim::CostModel& cost, MechanismOptions opts)
      : cost_(&cost), opts_(opts) {}

  const sim::CostModel& cost_model() const { return *cost_; }

  sim::Cycles prep_cost() const {
    return opts_.optimized_prep ? cost_->prep_optimized(opts_.online_cpus)
                                : cost_->prep_baseline(opts_.online_cpus);
  }

  /// Cold single-page migration (the Fig. 2 microbenchmark): one page whose
  /// translation may be cached by `process_remote_cores` other cores.
  /// `sharer_remote_cores` is the (smaller) set per-thread tables prove.
  PhaseBreakdown single_page(unsigned process_remote_cores,
                             unsigned sharer_remote_cores) const {
    PhaseBreakdown b =
        page_move(*cost_,
                  flush_targets(process_remote_cores, sharer_remote_cores),
                  CopyKind::kCpu);
    b.prep = prep_cost();
    return b;
  }

  /// Synchronous batched migration of `pages` pages (the Fig. 7 regime:
  /// migrate_pages() on live mappings). Unmap/remap pay the cold per-page
  /// cost; shootdowns pay the cold broadcast per page up to the kernel's
  /// flush ceiling (tlb_single_page_flush_ceiling), beyond which flushes
  /// batch (TTU_BATCH_FLUSH) and the overlapped per-page cost applies.
  static constexpr std::uint64_t kFlushCeiling = 33;

  PhaseBreakdown batch(std::uint64_t pages, unsigned process_remote_cores,
                       unsigned avg_sharer_remote_cores) const {
    PhaseBreakdown b;
    b.prep = prep_cost();
    b.unmap = cost_->unmap(pages);
    const unsigned targets =
        flush_targets(process_remote_cores, avg_sharer_remote_cores);
    const std::uint64_t cold_pages = std::min(pages, kFlushCeiling);
    b.shootdown = cold_pages * cost_->shootdown_cold(targets);
    if (pages > cold_pages) {
      b.shootdown += cost_->shootdown_batched(pages - cold_pages, targets);
    }
    b.copy = cost_->copy_batched(pages);
    b.remap = cost_->remap(pages);
    return b;
  }

 private:
  /// Remote cores a flush reaches: the proven sharers under targeted
  /// shootdown (never more than the process set), else every process core.
  unsigned flush_targets(unsigned process_remote_cores,
                         unsigned sharer_remote_cores) const {
    return opts_.targeted_shootdown
               ? std::min(sharer_remote_cores, process_remote_cores)
               : process_remote_cores;
  }

  const sim::CostModel* cost_;
  MechanismOptions opts_;
};

}  // namespace vulcan::mig
