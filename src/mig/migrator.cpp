#include "mig/migrator.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/provenance.hpp"
#include "vm/mmu.hpp"

namespace vulcan::mig {

Migrator::Migrator(vm::AddressSpace& as, mem::Topology& topo,
                   vm::ShootdownController& shootdowns,
                   const sim::CostModel& cost, Config config)
    : as_(&as),
      topo_(&topo),
      shootdowns_(&shootdowns),
      mechanism_(cost, config.mechanism),
      config_(std::move(config)),
      shadows_(topo) {}

void Migrator::set_obs(obs::Scope scope) {
  obs_ = std::move(scope);
  for (std::size_t p = 0; p < phase_cycles_.size(); ++p) {
    phase_cycles_[p] = &obs_.counter(
        std::string(obs::mig_phase_name(static_cast<obs::MigPhase>(p))) +
        "_cycles");
  }
  obs_migrated_ = &obs_.counter("pages_migrated");
  obs_failed_ = &obs_.counter("pages_failed");
  obs_shadow_remaps_ = &obs_.counter("shadow_remaps");
  obs_bytes_ = &obs_.counter("bytes_copied");
}

void Migrator::set_provenance(obs::ProvenanceLedger* ledger,
                              std::int32_t app) {
  ledger_ = ledger && ledger->enabled() ? ledger : nullptr;
  prov_app_ = app;
  if (!ledger_) return;
  // abort{reason=...} registry counters only exist with provenance on —
  // the default registry snapshot (and so the pinned fuzz digests) must
  // stay byte-identical. kNone is never counted.
  for (std::size_t r = 1; r < abort_counts_.size(); ++r) {
    abort_counts_[r] = &obs_.counter(
        std::string("abort{reason=") +
        obs::mig_abort_reason_name(static_cast<obs::MigAbortReason>(r)) +
        "}");
  }
}

bool Migrator::abort_request(const MigrationRequest& req,
                             obs::MigAbortReason reason) {
  last_abort_ = reason;
  // Both abort reports are provenance-gated. The counters obviously are
  // (new registry keys), but so are the trace events: extra events roll
  // older ones out of the bounded ring and bump obs.trace.dropped_events,
  // which sits in the registry snapshot the pinned fuzz digests cover.
  if (ledger_) {
    if (obs_.tracing()) {
      obs_.event(obs::EventKind::kMigAbort, static_cast<std::uint64_t>(reason),
                 req.vpn, req.heat);
    }
    abort_counts_[static_cast<std::size_t>(reason)]->inc();
  }
  return false;
}

void Migrator::record_move(vm::Vpn vpn, mem::Pfn old_pfn, mem::TierId to,
                           std::uint64_t cause) {
  if (!ledger_) return;
  ledger_->record_transition(prov_app_, vpn - as_->base_vpn(),
                             static_cast<std::int32_t>(mem::tier_of(old_pfn)),
                             static_cast<std::int32_t>(to), cause);
}

void Migrator::link_outcome(const MigrationRequest& req, bool executed,
                            const MigrationStats& before,
                            const MigrationStats& stats) {
  obs::DecisionOutcome outcome;
  outcome.pages = stats.migrated - before.migrated;
  outcome.shootdown_ipis = stats.shootdown_ipis - before.shootdown_ipis;
  outcome.latency_cycles = (stats.stall_cycles - before.stall_cycles) +
                           (stats.daemon_cycles - before.daemon_cycles);
  if (executed) {
    outcome.status = stats.shadow_remaps > before.shadow_remaps
                         ? obs::DecisionStatus::kShadowRemap
                     : last_partial_ ? obs::DecisionStatus::kPartialChunk
                                     : obs::DecisionStatus::kCompleted;
  } else {
    outcome.status = obs::DecisionStatus::kAborted;
    outcome.abort_reason = last_abort_;
  }
  // Final residency of the decision's own page — a partial chunk move may
  // have stopped short of it, so read the live PTE rather than trusting
  // req.to.
  const vm::Pte pte = shootdowns_->mmu().walk(*as_, req.vpn);
  outcome.final_tier =
      pte.present() ? static_cast<std::int32_t>(mem::tier_of(pte.pfn())) : -1;
  ledger_->link_outcome(req.provenance, outcome);
}

AdmissionInputs Migrator::admission_inputs(const MigrationRequest& req) {
  AdmissionInputs in;
  const bool sync = req.mode == CopyMode::kSync;
  const vm::CoreId initiator =
      sync ? core_of(req.owner) : config_.daemon_core;
  const vm::Pte pte = shootdowns_->mmu().walk(*as_, req.vpn);
  const std::int32_t from =
      pte.present() ? static_cast<std::int32_t>(mem::tier_of(pte.pfn())) : -1;
  in.promotion = from >= 0 ? static_cast<std::int32_t>(req.to) < from
                           : req.to == mem::kFastTier;
  in.dma_copy = config_.dma_copy;
  in.predicted_benefit = req.predicted_benefit;
  if (req.whole_chunk) {
    in.pages = sim::kPagesPerHuge;
    // Chunk flushes broadcast in the common (huge-mapped or shared) case;
    // size the IPI prediction accordingly.
    in.predicted_ipis =
        static_cast<unsigned>(broadcast_targets(initiator).size());
  } else {
    in.pages = 1;
    in.predicted_ipis =
        static_cast<unsigned>(shootdown_targets(req, initiator).size());
    in.shadow_path = !in.promotion && pte.present() && !pte.dirty() &&
                     config_.shadowing && shadows_.has(req.vpn);
  }
  const mem::FrameAllocator& dest = topo_->allocator(req.to);
  in.dest_free_fraction =
      dest.capacity() ? static_cast<double>(dest.free_pages()) /
                            static_cast<double>(dest.capacity())
                      : 0.0;
  if (from >= 0) {
    const mem::FrameAllocator& src =
        topo_->allocator(static_cast<mem::TierId>(from));
    in.source_free_fraction =
        src.capacity() ? static_cast<double>(src.free_pages()) /
                             static_cast<double>(src.capacity())
                       : 0.0;
  }
  return in;
}

void Migrator::veto_request(const MigrationRequest& req,
                            obs::MigAbortReason reason) {
  // Veto counts live in the controller's adm.* counters; the per-reason
  // reporting here mirrors abort_request's ledger gating so admission-off
  // (and provenance-off) artefacts stay byte-identical.
  if (!ledger_) return;
  if (obs_.tracing()) {
    obs_.event(obs::EventKind::kMigAbort, static_cast<std::uint64_t>(reason),
               req.vpn, req.heat);
  }
  if (req.provenance == 0) return;
  obs::DecisionOutcome outcome;
  outcome.status = obs::DecisionStatus::kVetoed;
  outcome.abort_reason = reason;
  const vm::Pte pte = shootdowns_->mmu().walk(*as_, req.vpn);
  outcome.final_tier =
      pte.present() ? static_cast<std::int32_t>(mem::tier_of(pte.pfn())) : -1;
  ledger_->link_outcome(req.provenance, outcome);
}

sim::Cycles Migrator::phase(obs::MigPhase p, std::uint64_t pages,
                            sim::Cycles cycles, bool with_span) {
  phase_cycles_[static_cast<std::size_t>(p)]->inc(cycles);
  if (obs_.tracing()) {
    obs_.event(obs::EventKind::kMigPhaseBegin,
               static_cast<std::uint64_t>(p), pages);
    obs_.event(obs::EventKind::kMigPhaseEnd, static_cast<std::uint64_t>(p),
               cycles);
  }
  if (with_span) {
    obs_.span(obs::span_kind_for(p), static_cast<double>(pages))
        .close(cycles);
  }
  return cycles;
}

std::span<const vm::CoreId> Migrator::broadcast_targets(
    vm::CoreId initiator) {
  std::vector<vm::CoreId>& targets = targets_scratch_;
  targets.clear();
  targets.reserve(config_.process_cores.size());
  for (const vm::CoreId c : config_.process_cores) {
    if (c != initiator &&
        std::find(targets.begin(), targets.end(), c) == targets.end()) {
      targets.push_back(c);
    }
  }
  return targets;
}

std::span<const vm::CoreId> Migrator::shootdown_targets(
    const MigrationRequest& req, vm::CoreId initiator) {
  if (config_.mechanism.targeted_shootdown) {
    // Consult the live PTE, not the plan-time request: requests queued
    // across epochs go stale when another thread touches the page in the
    // meantime (ownership flips to shared), and a targeted flush based on
    // the old owner would leave live entries on the new sharers' cores.
    // Same predicate as tables().exclusive_owner(), but the PTE read goes
    // through the MMU's page-walk cache instead of a full radix walk.
    const vm::Pte pte = shootdowns_->mmu().walk(*as_, req.vpn);
    if (pte.present() && !pte.shared()) {
      // A single owner proven by the ownership bits: that thread is the
      // only one ever to have touched the page, so its core holds the
      // only possible 4 KB entry.
      targets_scratch_.clear();
      const vm::CoreId owner_core =
          core_of(static_cast<vm::ThreadId>(pte.thread()));
      if (owner_core != initiator) targets_scratch_.push_back(owner_core);
      return targets_scratch_;
    }
  }
  // Shared page (or no ownership knowledge): every process core.
  return broadcast_targets(initiator);
}

std::span<const vm::CoreId> Migrator::chunk_shootdown_targets(
    std::span<const vm::Vpn> moved, bool was_huge, vm::CoreId initiator) {
  if (was_huge || !config_.mechanism.targeted_shootdown) {
    return broadcast_targets(initiator);
  }
  // Base-paged chunk: each 4 KB entry lives only on its exclusive owner's
  // core, so the union of owner cores covers the batch. Ownership bits
  // survive remap, so this is valid before or after the copy loop.
  std::vector<vm::CoreId>& targets = targets_scratch_;
  targets.clear();
  // The batch lives in one (or a few) 2 MB chunks, so one leaf lookup
  // serves each 512-page run — ownership reads become direct leaf loads
  // instead of full radix walks.
  const vm::PageTable& pt = as_->tables().process_table();
  const vm::LeafTable* leaf = nullptr;
  vm::Vpn leaf_chunk = ~vm::Vpn{0};
  for (const vm::Vpn vpn : moved) {
    const vm::Vpn chunk = vpn / sim::kPagesPerHuge;
    if (chunk != leaf_chunk) {
      leaf = pt.leaf_of(vpn);
      leaf_chunk = chunk;
    }
    const vm::Pte pte =
        leaf ? leaf->get(vm::PageTable::pte_index(vpn)) : vm::Pte{};
    if (!pte.present() || pte.shared()) {
      return broadcast_targets(initiator);  // shared (or unmapped)
    }
    const vm::CoreId c = core_of(static_cast<vm::ThreadId>(pte.thread()));
    if (c != initiator &&
        std::find(targets.begin(), targets.end(), c) == targets.end()) {
      targets.push_back(c);
    }
  }
  return targets;
}

bool Migrator::execute_chunk(const MigrationRequest& req, sim::Rng& rng,
                             MigrationStats& stats) {
  (void)rng;
  const bool sync = req.mode == CopyMode::kSync;
  sim::Cycles& bucket = sync ? stats.stall_cycles : stats.daemon_cycles;
  const vm::CoreId initiator =
      sync ? core_of(req.owner) : config_.daemon_core;
  // Captured before the move: a huge-mapped chunk's 2 MB TLB entry may be
  // cached by any core whose thread touched any page of the chunk, so the
  // flush round below must broadcast regardless of per-page ownership.
  const bool was_huge =
      as_->chunk_state(req.vpn) == vm::AddressSpace::ChunkState::kHuge;
  obs::ScopedSpan op_span =
      obs_.span(obs::SpanKind::kMigrationOp,
                static_cast<double>(sim::kPagesPerHuge), req.to, req.owner);

  const vm::Vpn base = as_->chunk_base(req.vpn);
  vm::Mmu& mmu = shootdowns_->mmu();
  std::vector<vm::Vpn>& moved = moved_scratch_;
  moved.clear();
  moved.reserve(sim::kPagesPerHuge);
  bool complete = true;
  for (std::uint64_t i = 0; i < sim::kPagesPerHuge; ++i) {
    const vm::Vpn vpn = base + i;
    // All 512 pages share one leaf, so the Mmu's page-walk cache turns
    // 511 of these radix walks into a single hash probe each.
    const vm::Pte pte = mmu.walk(*as_, vpn);
    if (!pte.present() || mem::tier_of(pte.pfn()) == req.to) continue;
    auto dest = topo_->allocator(req.to).allocate();
    if (!dest) {
      complete = false;  // destination exhausted mid-chunk: partial move
      break;
    }
    const mem::Pfn old = as_->remap(vpn, *dest);
    record_move(vpn, old, req.to, req.provenance);
    if (config_.shadowing) shadows_.invalidate(vpn);
    topo_->allocator(mem::tier_of(old)).free(old);
    moved.push_back(vpn);
  }
  if (moved.empty()) {
    // Nothing movable: either every page already sits in the target tier
    // (stale request) or the very first allocation failed.
    return abort_request(req, complete ? obs::MigAbortReason::kStale
                                       : obs::MigAbortReason::kDestinationFull);
  }
  last_partial_ = !complete;
  if (!complete &&
      as_->chunk_state(req.vpn) == vm::AddressSpace::ChunkState::kHuge) {
    // A huge mapping cannot straddle tiers: a partial move forces a split.
    as_->split_chunk(req.vpn);
    mmu.invalidate_pwc(as_->pid(), req.vpn);
    bucket += config_.huge_split_cycles;
  }

  // Batched mechanics: one flush round for the whole chunk, amortised
  // per-page unmap/copy/remap.
  const auto targets = chunk_shootdown_targets(moved, was_huge, initiator);
  const PhaseBreakdown move =
      chunk_move(mechanism_.cost_model(), moved.size(),
                 static_cast<unsigned>(targets.size()), copy_kind());
  bucket += phase(obs::MigPhase::kUnmap, moved.size(), move.unmap);
  {
    // The shootdown phase span wraps the controller call so the IPI-round
    // span it records nests inside; the controller advances the cursor.
    obs::ScopedSpan sd_span =
        obs_.span(obs::span_kind_for(obs::MigPhase::kShootdown),
                  static_cast<double>(moved.size()), req.to);
    const sim::Cycles sd_cost =
        shootdowns_->shoot_batch(initiator, targets, as_->pid(), moved);
    bucket += phase(obs::MigPhase::kShootdown, moved.size(), sd_cost,
                    /*with_span=*/false);
    stats.shootdown_ipis += targets.size();
  }
  bucket += phase(obs::MigPhase::kCopy, moved.size(), move.copy);
  bucket += phase(obs::MigPhase::kRemap, moved.size(), move.remap);
  stats.bytes_copied += moved.size() * sim::kPageSize;
  stats.migrated += moved.size();

  // (Re)establish the 2 MB mapping for TLB coverage; collapse_chunk
  // verifies the whole chunk is mapped and co-resident, so a partial move
  // (destination exhausted) safely stays base-paged.
  as_->collapse_chunk(req.vpn);
  mmu.invalidate_pwc(as_->pid(), req.vpn);
  return true;
}

bool Migrator::execute_one(const MigrationRequest& req, sim::Rng& rng,
                           MigrationStats& stats) {
  if (req.whole_chunk) return execute_chunk(req, rng, stats);

  const sim::CostModel& cost = mechanism_.cost_model();
  const bool sync = req.mode == CopyMode::kSync;
  sim::Cycles& bucket = sync ? stats.stall_cycles : stats.daemon_cycles;
  const vm::CoreId initiator =
      sync ? core_of(req.owner) : config_.daemon_core;

  vm::Mmu& mmu = shootdowns_->mmu();
  const vm::Pte pte = mmu.walk(*as_, req.vpn);
  if (!pte.present() || mem::tier_of(pte.pfn()) == req.to) {
    return abort_request(req, obs::MigAbortReason::kStale);
  }

  obs::ScopedSpan op_span = obs_.span(obs::SpanKind::kMigrationOp,
                                      /*arg=*/1.0, req.to, req.owner);

  // THP split precedes any base-page migration of a huge-mapped chunk.
  // The stale 2 MB entry may be cached by any core whose thread touched
  // any page of the chunk — per-page ownership says nothing about who
  // cached the chunk translation — so the split itself pays a broadcast
  // flush round (Linux pmdp_invalidate + flush semantics). Flushing here,
  // not with the page's migration, keeps the chunk consistent on every
  // later exit path (destination-full bail-out, async abort) and lets the
  // migration's own shootdown stay targeted.
  if (as_->is_huge(req.vpn)) {
    as_->split_chunk(req.vpn);
    mmu.invalidate_pwc(as_->pid(), req.vpn);
    bucket += config_.huge_split_cycles;
    op_span.advance(config_.huge_split_cycles);
    const auto split_targets = broadcast_targets(initiator);
    obs::ScopedSpan sd_span =
        obs_.span(obs::span_kind_for(obs::MigPhase::kShootdown),
                  /*arg=*/1.0, req.to);
    bucket += phase(obs::MigPhase::kShootdown, 1,
                    shootdowns_->shoot_single(initiator, split_targets,
                                              as_->pid(), req.vpn),
                    /*with_span=*/false);
    stats.shootdown_ipis += split_targets.size();
  }

  const auto targets = shootdown_targets(req, initiator);
  const bool demotion = req.to != mem::kFastTier;
  const bool dirty = pte.dirty();

  // Cheap demotion path: a clean page with a live shadow is just remapped
  // back onto its slow-tier copy — no content copy at all.
  if (demotion && !dirty && config_.shadowing) {
    if (auto shadow = shadows_.consume(req.vpn)) {
      const PhaseBreakdown move =
          page_move(cost, static_cast<unsigned>(targets.size()),
                    CopyKind::kNone);
      bucket += phase(obs::MigPhase::kUnmap, 1, move.unmap);
      {
        obs::ScopedSpan sd_span =
            obs_.span(obs::span_kind_for(obs::MigPhase::kShootdown),
                      /*arg=*/1.0, req.to);
        bucket += phase(obs::MigPhase::kShootdown, 1,
                        shootdowns_->shoot_single(initiator, targets,
                                                  as_->pid(), req.vpn),
                        /*with_span=*/false);
        stats.shootdown_ipis += targets.size();
      }
      const mem::Pfn old = as_->remap(req.vpn, *shadow);
      record_move(req.vpn, old, req.to, req.provenance);
      topo_->allocator(mem::tier_of(old)).free(old);
      bucket += phase(obs::MigPhase::kRemap, 1, move.remap);
      ++stats.shadow_remaps;
      ++stats.migrated;
      return true;
    }
  }

  auto dest = topo_->allocator(req.to).allocate();
  if (!dest) {
    // Destination tier full: the policy must make room first.
    return abort_request(req, obs::MigAbortReason::kDestinationFull);
  }

  // Async copies race application writes; write-intensive pages may abort.
  if (!sync) {
    const double p_success = async_success_probability(
        req.write_intensive, config_.async_max_retries);
    // Expected extra copies before resolution (success or abort).
    const double p_dirty = 1.0 - p_success;
    if (p_dirty > 0.0) {
      const unsigned extra = static_cast<unsigned>(
          rng.uniform() * config_.async_max_retries * (1.0 - p_success));
      stats.retries += extra;
      bucket += phase(obs::MigPhase::kCopy, extra,
                      extra * cost.copy_single());
      stats.bytes_copied += extra * sim::kPageSize;
    }
    if (!rng.chance(p_success)) {
      topo_->allocator(req.to).free(*dest);
      ++stats.failed;
      return abort_request(req, obs::MigAbortReason::kAsyncCopyAborted);
    }
  }

  const PhaseBreakdown move =
      page_move(cost, static_cast<unsigned>(targets.size()), copy_kind());
  bucket += phase(obs::MigPhase::kUnmap, 1, move.unmap);
  {
    obs::ScopedSpan sd_span =
        obs_.span(obs::span_kind_for(obs::MigPhase::kShootdown),
                  /*arg=*/1.0, req.to);
    bucket += phase(obs::MigPhase::kShootdown, 1,
                    shootdowns_->shoot_single(initiator, targets, as_->pid(),
                                              req.vpn),
                    /*with_span=*/false);
    stats.shootdown_ipis += targets.size();
  }
  bucket += phase(obs::MigPhase::kCopy, 1, move.copy);
  stats.bytes_copied += sim::kPageSize;
  const mem::Pfn old = as_->remap(req.vpn, *dest);
  record_move(req.vpn, old, req.to, req.provenance);
  bucket += phase(obs::MigPhase::kRemap, 1, move.remap);
  if (!req.shared) ++stats.private_migrated;

  const bool promotion_from_slow =
      req.to == mem::kFastTier && mem::tier_of(old) != mem::kFastTier;
  if (config_.shadowing && promotion_from_slow && !dirty) {
    shadows_.install(req.vpn, old);  // registry owns the frame now
  } else {
    if (config_.shadowing) shadows_.invalidate(req.vpn);
    topo_->allocator(mem::tier_of(old)).free(old);
  }
  ++stats.migrated;
  return true;
}

MigrationStats Migrator::execute(std::span<const MigrationRequest> requests,
                                 sim::Rng& rng) {
  MigrationStats stats;
  if (requests.empty()) return stats;

  // Admission control filters before any mechanism cost is composed:
  // vetoed requests pay nothing (no prep share, no RNG draw) and finalize
  // their provenance rows with the veto reason.
  std::span<const MigrationRequest> admitted = requests;
  if (admission_) {
    admitted_scratch_.clear();
    for (const auto& req : requests) {
      const AdmissionVerdict verdict =
          admission_->assess(admission_inputs(req));
      if (verdict.admitted) {
        admitted_scratch_.push_back(req);
      } else {
        ++stats.vetoed;
        veto_request(req, verdict.reason);
      }
    }
    admitted = admitted_scratch_;
    if (admitted.empty()) {
      totals_ += stats;
      return stats;
    }
  }

  bool any_sync = false, any_async = false;
  for (const auto& r : admitted) {
    (r.mode == CopyMode::kSync ? any_sync : any_async) = true;
  }
  // Migration preparation is paid once per migrate_pages() invocation; sync
  // and async requests travel in separate invocations (app context vs the
  // migration thread).
  if (any_sync) {
    stats.stall_cycles +=
        phase(obs::MigPhase::kPrep, admitted.size(), mechanism_.prep_cost());
  }
  if (any_async) {
    stats.daemon_cycles +=
        phase(obs::MigPhase::kPrep, admitted.size(), mechanism_.prep_cost());
  }

  for (const auto& req : admitted) {
    ++stats.attempted;
    if (!ledger_) {
      execute_one(req, rng, stats);
      continue;
    }
    const MigrationStats before = stats;
    last_abort_ = obs::MigAbortReason::kNone;
    last_partial_ = false;
    const bool executed = execute_one(req, rng, stats);
    if (req.provenance != 0) link_outcome(req, executed, before, stats);
  }
  totals_ += stats;
  obs_migrated_->inc(stats.migrated);
  obs_failed_->inc(stats.failed);
  obs_shadow_remaps_->inc(stats.shadow_remaps);
  obs_bytes_->inc(stats.bytes_copied);
  return stats;
}

}  // namespace vulcan::mig
