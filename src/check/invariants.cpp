#include "check/invariants.hpp"

#include <sstream>
#include <unordered_map>

#include "obs/provenance.hpp"
#include "sim/config.hpp"

namespace vulcan::check {

namespace {

void add_violation(AuditReport& report, AuditRule rule, std::int32_t workload,
                   std::uint64_t detail, double value, std::string message) {
  Violation v;
  v.rule = rule;
  v.workload = workload;
  v.detail = detail;
  v.value = value;
  v.message = std::move(message);
  report.violations.push_back(std::move(v));
}

}  // namespace

const char* audit_rule_name(AuditRule rule) {
  switch (rule) {
    case AuditRule::kFrameConservation: return "frame_conservation";
    case AuditRule::kFrameAllocator: return "frame_allocator";
    case AuditRule::kCensus: return "census";
    case AuditRule::kDuplicateFrame: return "duplicate_frame";
    case AuditRule::kFreedFrame: return "freed_frame";
    case AuditRule::kChunkCoherence: return "chunk_coherence";
    case AuditRule::kTlbTranslation: return "tlb_translation";
    case AuditRule::kTlbHugeCoverage: return "tlb_huge_coverage";
    case AuditRule::kReplicaCoherence: return "replica_coherence";
    case AuditRule::kCounterDrift: return "counter_drift";
    case AuditRule::kPwcCoherence: return "pwc_coherence";
    case AuditRule::kProvenanceResidency: return "provenance_residency";
    case AuditRule::kDepartedResidency: return "departed_residency";
  }
  return "unknown";
}

const char* audit_level_name(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff: return "off";
    case AuditLevel::kBasic: return "basic";
    case AuditLevel::kFull: return "full";
  }
  return "unknown";
}

std::optional<AuditLevel> parse_audit_level(std::string_view name) {
  if (name == "off" || name == "0" || name == "none") return AuditLevel::kOff;
  if (name == "basic" || name == "1") return AuditLevel::kBasic;
  if (name == "full" || name == "2") return AuditLevel::kFull;
  return std::nullopt;
}

std::string format_report(const AuditReport& report) {
  std::ostringstream out;
  out << "audit(level=" << audit_level_name(report.level)
      << ", epoch=" << report.epoch << "): " << report.violations.size()
      << " violation(s) in " << report.checks << " checks";
  constexpr std::size_t kMaxLines = 16;
  const std::size_t shown = std::min(report.violations.size(), kMaxLines);
  for (std::size_t i = 0; i < shown; ++i) {
    const Violation& v = report.violations[i];
    out << "\n  [" << audit_rule_name(v.rule) << "]";
    if (v.workload >= 0) out << " w=" << v.workload;
    out << " " << v.message;
  }
  if (report.violations.size() > shown) {
    out << "\n  ... and " << (report.violations.size() - shown) << " more";
  }
  return out.str();
}

/// Aggregation of one workload's page-table walk, reused by the
/// cross-workload frame-conservation pass.
struct InvariantAuditor::WalkResult {
  std::vector<std::uint64_t> tier_pages;  ///< present mappings per tier
  std::uint64_t present = 0;              ///< total present mappings
};

/// Which workload first claimed each physical frame (mapping or shadow).
/// Dense per-tier arrays indexed by frame number — hashing every claimed
/// frame dominated audit cost before; the arrays are small (tier
/// capacities) and reset per audit pass. Frames whose tier or index falls
/// outside the topology (corruption the per-claim checks flag anyway) go
/// to the overflow map so duplicate detection still covers them.
struct InvariantAuditor::FrameLedger {
  std::vector<std::vector<std::int32_t>> by_tier;  // index -> owner; -1 free
  std::unordered_map<std::uint64_t, std::int32_t> overflow;

  void init(const mem::Topology& topo) {
    by_tier.resize(topo.tier_count());
    for (std::size_t t = 0; t < topo.tier_count(); ++t) {
      by_tier[t].assign(
          topo.allocator(static_cast<mem::TierId>(t)).capacity(), -1);
    }
  }

  /// Claim `pfn` for workload `wi`. Returns {first owner, newly claimed}.
  std::pair<std::int32_t, bool> claim(mem::Pfn pfn, std::int32_t wi) {
    const mem::TierId tier = mem::tier_of(pfn);
    const std::uint64_t index = mem::index_of(pfn);
    if (tier < by_tier.size() && index < by_tier[tier].size()) {
      std::int32_t& slot = by_tier[tier][index];
      if (slot < 0) {
        slot = wi;
        return {wi, true};
      }
      return {slot, false};
    }
    const auto [it, inserted] = overflow.emplace(pfn, wi);
    return {it->second, inserted};
  }
};

void InvariantAuditor::check_workload(const WorkloadView& w,
                                      const mem::Topology& topo,
                                      FrameLedger& frames, AuditReport& report,
                                      WalkResult& out) const {
  const vm::AddressSpace& as = *w.as;
  const auto wi = static_cast<std::int32_t>(w.index);
  const std::size_t tier_count = topo.tier_count();
  out.tier_pages.assign(tier_count, 0);

  const vm::Vpn lo = as.base_vpn();
  const vm::Vpn hi = lo + as.rss_pages();
  const std::size_t chunk_count = static_cast<std::size_t>(
      (as.rss_pages() + sim::kPagesPerHuge - 1) / sim::kPagesPerHuge);

  // Per-chunk aggregation filled by the same single walk that feeds the
  // census and frame checks (the walk dominates audit cost; one pass).
  struct ChunkAgg {
    std::uint32_t present = 0;
    std::int32_t tier = -1;  // first tier seen; -2 = straddles tiers
  };
  std::vector<ChunkAgg> chunks(chunk_count);

  as.tables().process_table().visit([&](vm::Vpn vpn, vm::Pte pte) {
    ++report.checks;
    ++out.present;
    if (vpn < lo || vpn >= hi) {
      add_violation(report, AuditRule::kCensus, wi, vpn,
                    static_cast<double>(pte.pfn()),
                    "mapping outside the RSS range at vpn " +
                        std::to_string(vpn));
      return;
    }
    const mem::Pfn pfn = pte.pfn();
    const mem::TierId tier = mem::tier_of(pfn);
    if (tier >= tier_count) {
      add_violation(report, AuditRule::kFreedFrame, wi, vpn,
                    static_cast<double>(pfn),
                    "PTE references pfn " + std::to_string(pfn) +
                        " in nonexistent tier " + std::to_string(tier));
      return;
    }
    ++out.tier_pages[tier];
    if (!topo.allocator(tier).is_allocated(pfn)) {
      add_violation(report, AuditRule::kFreedFrame, wi, vpn,
                    static_cast<double>(pfn),
                    "PTE at vpn " + std::to_string(vpn) +
                        " references free frame " + std::to_string(pfn));
    }
    const auto [first_owner, inserted] = frames.claim(pfn, wi);
    if (!inserted) {
      add_violation(report, AuditRule::kDuplicateFrame, wi, vpn,
                    static_cast<double>(pfn),
                    "frame " + std::to_string(pfn) +
                        " mapped twice (first owner w=" +
                        std::to_string(first_owner) + ")");
    }
    ChunkAgg& agg = chunks[static_cast<std::size_t>(
        (vpn - lo) / sim::kPagesPerHuge)];
    ++agg.present;
    const auto t = static_cast<std::int32_t>(tier);
    if (agg.tier == -1) {
      agg.tier = t;
    } else if (agg.tier != t) {
      agg.tier = -2;
    }
  });

  // Census: the per-tier membership lists the runtime keeps (and
  // TierHeatRanking ranks from) must match the walked truth.
  for (std::size_t t = 0; t < tier_count; ++t) {
    ++report.checks;
    const std::uint64_t recorded =
        as.pages_in_tier(static_cast<mem::TierId>(t));
    if (out.tier_pages[t] != recorded) {
      add_violation(report, AuditRule::kCensus, wi, t,
                    static_cast<double>(out.tier_pages[t]),
                    "tier " + std::to_string(t) + " census says " +
                        std::to_string(recorded) + " pages but the walk found " +
                        std::to_string(out.tier_pages[t]));
    }
  }
  ++report.checks;
  if (out.present != as.faulted_pages()) {
    add_violation(report, AuditRule::kCensus, wi, ~std::uint64_t{0},
                  static_cast<double>(out.present),
                  "faulted-page count " + std::to_string(as.faulted_pages()) +
                      " vs " + std::to_string(out.present) +
                      " present mappings");
  }

  // Chunk coherence: the per-2MB state machine vs the walked mappings.
  for (std::size_t ci = 0; ci < chunk_count; ++ci) {
    ++report.checks;
    const vm::Vpn base = lo + ci * sim::kPagesPerHuge;
    const ChunkAgg& agg = chunks[ci];
    switch (as.chunk_state(base)) {
      case vm::AddressSpace::ChunkState::kHuge:
        if (agg.present != sim::kPagesPerHuge || agg.tier < 0) {
          add_violation(
              report, AuditRule::kChunkCoherence, wi, base,
              static_cast<double>(agg.present),
              "huge chunk at vpn " + std::to_string(base) + " has " +
                  std::to_string(agg.present) + "/512 present pages" +
                  (agg.tier == -2 ? " straddling tiers" : ""));
        }
        break;
      case vm::AddressSpace::ChunkState::kUnfaulted:
        if (agg.present != 0) {
          add_violation(report, AuditRule::kChunkCoherence, wi, base,
                        static_cast<double>(agg.present),
                        "unfaulted chunk at vpn " + std::to_string(base) +
                            " has " + std::to_string(agg.present) +
                            " present pages");
        }
        break;
      case vm::AddressSpace::ChunkState::kBasePages:
        if (agg.present == 0) {
          add_violation(report, AuditRule::kChunkCoherence, wi, base,
                        0.0,
                        "base-paged chunk at vpn " + std::to_string(base) +
                            " has no present pages");
        }
        break;
    }
  }
}

void InvariantAuditor::check_frames(const SystemView& view,
                                    const std::vector<WalkResult>& walks,
                                    FrameLedger& frames,
                                    AuditReport& report) const {
  const mem::Topology& topo = *view.topology;
  const std::size_t tier_count = topo.tier_count();
  std::vector<std::uint64_t> shadow_in_tier(tier_count, 0);

  // Shadow frames are allocator-owned but unmapped: they join the
  // duplicate/freed checks and count toward conservation.
  for (const WorkloadView& w : view.workloads) {
    if (!w.migrator) continue;
    const auto wi = static_cast<std::int32_t>(w.index);
    w.migrator->shadows().for_each([&](vm::Vpn vpn, mem::Pfn pfn) {
      ++report.checks;
      const mem::TierId tier = mem::tier_of(pfn);
      if (tier >= tier_count || !topo.allocator(tier).is_allocated(pfn)) {
        add_violation(report, AuditRule::kFreedFrame, wi, vpn,
                      static_cast<double>(pfn),
                      "shadow of vpn " + std::to_string(vpn) +
                          " references free frame " + std::to_string(pfn));
      } else {
        ++shadow_in_tier[tier];
      }
      const auto [first_owner, inserted] = frames.claim(pfn, wi);
      if (!inserted) {
        add_violation(report, AuditRule::kDuplicateFrame, wi, vpn,
                      static_cast<double>(pfn),
                      "shadow frame " + std::to_string(pfn) +
                          " also owned by w=" + std::to_string(first_owner));
      }
    });
  }

  for (std::size_t t = 0; t < tier_count; ++t) {
    const auto tier = static_cast<mem::TierId>(t);
    const mem::FrameAllocator& alloc = topo.allocator(tier);

    ++report.checks;
    std::string why;
    if (!alloc.self_check(&why)) {
      add_violation(report, AuditRule::kFrameAllocator, -1, t, 0.0,
                    "allocator self-check failed: " + why);
    }

    ++report.checks;
    std::uint64_t mapped = 0;
    for (const WalkResult& walk : walks) mapped += walk.tier_pages[t];
    const std::uint64_t accounted = mapped + shadow_in_tier[t];
    if (alloc.used() != accounted) {
      add_violation(
          report, AuditRule::kFrameConservation, -1, t,
          static_cast<double>(alloc.used()),
          "tier " + std::to_string(t) + " allocator holds " +
              std::to_string(alloc.used()) + " frames but " +
              std::to_string(mapped) + " mapped + " +
              std::to_string(shadow_in_tier[t]) + " shadows are accounted" +
              (alloc.used() > accounted ? " (leaked frames)"
                                        : " (double-owned frames)"));
    }
  }
}

void InvariantAuditor::check_departed(const WorkloadView& w,
                                      const mem::Topology& topo,
                                      AuditReport& report) const {
  const auto wi = static_cast<std::int32_t>(w.index);
  if (w.as) {
    ++report.checks;
    if (w.as->faulted_pages() != 0) {
      add_violation(report, AuditRule::kDepartedResidency, wi,
                    w.as->faulted_pages(),
                    static_cast<double>(w.as->faulted_pages()),
                    "departed workload still holds " +
                        std::to_string(w.as->faulted_pages()) +
                        " faulted pages");
    }
    for (std::size_t t = 0; t < topo.tier_count(); ++t) {
      ++report.checks;
      const std::uint64_t resident =
          w.as->pages_in_tier(static_cast<mem::TierId>(t));
      if (resident != 0) {
        add_violation(report, AuditRule::kDepartedResidency, wi, t,
                      static_cast<double>(resident),
                      "departed workload census still shows " +
                          std::to_string(resident) + " pages in tier " +
                          std::to_string(t));
      }
    }
  }
  if (w.migrator) {
    std::uint64_t shadows = 0;
    w.migrator->shadows().for_each(
        [&](vm::Vpn, mem::Pfn) { ++shadows; });
    ++report.checks;
    if (shadows != 0) {
      add_violation(report, AuditRule::kDepartedResidency, wi, shadows,
                    static_cast<double>(shadows),
                    "departed workload still owns " +
                        std::to_string(shadows) + " shadow frames");
    }
  }
}

void InvariantAuditor::check_tlbs(const SystemView& view,
                                  AuditReport& report) const {
  if (!view.tlbs) return;
  // Tiny linear pid map: scanning a handful of workloads per cached entry
  // beats a hash probe (the TLB sweep visits millions of entries per run).
  std::vector<std::pair<vm::ProcessId, const WorkloadView*>> by_pid;
  by_pid.reserve(view.workloads.size());
  for (const WorkloadView& w : view.workloads) {
    by_pid.emplace_back(w.as->pid(), &w);
  }
  const auto find_pid = [&](vm::ProcessId pid) -> const WorkloadView* {
    for (const auto& [p, w] : by_pid) {
      if (p == pid) return w;
    }
    return nullptr;
  };

  for (std::size_t core = 0; core < view.tlbs->size(); ++core) {
    (*view.tlbs)[core].visit_entries([&](const vm::Tlb::EntryView& e) {
      ++report.checks;
      const WorkloadView* found = find_pid(e.pid);
      if (!found) {
        add_violation(report, AuditRule::kTlbTranslation, -1, e.page,
                      static_cast<double>(core),
                      "core " + std::to_string(core) +
                          " caches a translation for unknown pid " +
                          std::to_string(e.pid));
        return;
      }
      if (found->departed) {
        // Departure owes a pid-targeted invalidation; any survivor is a
        // use-after-free translation waiting for pid reuse.
        add_violation(report, AuditRule::kDepartedResidency,
                      static_cast<std::int32_t>(found->index), e.page,
                      static_cast<double>(core),
                      "core " + std::to_string(core) +
                          " still caches a translation for departed pid " +
                          std::to_string(e.pid));
        return;
      }
      const WorkloadView& w = *found;
      const vm::AddressSpace& as = *w.as;
      const auto wi = static_cast<std::int32_t>(w.index);
      if (!e.huge) {
        const vm::Vpn vpn = e.page;
        const vm::Pte pte =
            as.contains(vpn) ? as.tables().get(vpn) : vm::Pte{};
        if (!pte.present()) {
          add_violation(report, AuditRule::kTlbTranslation, wi, vpn,
                        static_cast<double>(core),
                        "core " + std::to_string(core) +
                            " caches stale 4K entry for unmapped vpn " +
                            std::to_string(vpn));
        } else if (e.pfn != vm::Tlb::kUnknownPfn && pte.pfn() != e.pfn) {
          add_violation(report, AuditRule::kTlbTranslation, wi, vpn,
                        static_cast<double>(e.pfn),
                        "core " + std::to_string(core) + " caches vpn " +
                            std::to_string(vpn) + " -> pfn " +
                            std::to_string(e.pfn) + " but the PTE maps pfn " +
                            std::to_string(pte.pfn()) +
                            " (missed shootdown)");
        }
      } else {
        const vm::Vpn base = e.page * sim::kPagesPerHuge;
        if (!as.contains(base) ||
            as.chunk_state(base) != vm::AddressSpace::ChunkState::kHuge) {
          add_violation(report, AuditRule::kTlbHugeCoverage, wi, base,
                        static_cast<double>(core),
                        "core " + std::to_string(core) +
                            " caches a 2M entry for chunk at vpn " +
                            std::to_string(base) +
                            " which is no longer huge-mapped");
        } else if (e.pfn != vm::Tlb::kUnknownPfn &&
                   as.tables().get(base).pfn() != e.pfn) {
          add_violation(report, AuditRule::kTlbHugeCoverage, wi, base,
                        static_cast<double>(e.pfn),
                        "core " + std::to_string(core) +
                            " caches 2M entry at vpn " + std::to_string(base) +
                            " -> pfn " + std::to_string(e.pfn) +
                            " but the chunk now starts at pfn " +
                            std::to_string(as.tables().get(base).pfn()));
        }
      }
    });
  }
}

void InvariantAuditor::check_pwc(const SystemView& view,
                                 AuditReport& report) const {
  if (!view.mmu) return;
  std::vector<std::pair<vm::ProcessId, const WorkloadView*>> by_pid;
  by_pid.reserve(view.workloads.size());
  for (const WorkloadView& w : view.workloads) {
    if (w.as) by_pid.emplace_back(w.as->pid(), &w);
  }

  view.mmu->for_each_pwc_entry([&](const vm::Mmu::PwcEntryView& e) {
    ++report.checks;
    const vm::Vpn base = e.chunk * sim::kPagesPerHuge;
    const WorkloadView* found = nullptr;
    for (const auto& [p, w] : by_pid) {
      if (p == e.pid) {
        found = w;
        break;
      }
    }
    if (!found) {
      add_violation(report, AuditRule::kPwcCoherence, -1, base, 0.0,
                    "PWC caches a walk for unknown pid " +
                        std::to_string(e.pid));
      return;
    }
    if (found->departed) {
      add_violation(report, AuditRule::kDepartedResidency,
                    static_cast<std::int32_t>(found->index), base, 0.0,
                    "PWC still caches a walk for departed pid " +
                        std::to_string(e.pid));
      return;
    }
    // The cached leaf pointer must be exactly what a fresh 4-level walk of
    // the process tree resolves for the chunk — anything else would serve
    // stale PTEs to every translation in this 2 MB range.
    const vm::LeafTable* truth =
        found->as->tables().process_table().leaf_of(base);
    if (e.leaf != truth) {
      add_violation(report, AuditRule::kPwcCoherence,
                    static_cast<std::int32_t>(found->index), base,
                    static_cast<double>(e.chunk),
                    "stale PWC entry for chunk at vpn " +
                        std::to_string(base) +
                        " (cached leaf diverges from the radix walk)");
    }
  });
}

void InvariantAuditor::check_replicas(const WorkloadView& w,
                                      AuditReport& report) const {
  const vm::AddressSpace& as = *w.as;
  const vm::ReplicatedPageTable& tables = as.tables();
  const auto wi = static_cast<std::int32_t>(w.index);
  const unsigned threads = tables.thread_count();
  if (threads == 0) return;

  switch (tables.mode()) {
    case vm::ReplicationMode::kProcessWide:
      // Thread trees are unused scaffolding; any mapping there is stray.
      for (unsigned t = 0; t < threads; ++t) {
        ++report.checks;
        const std::uint64_t stray =
            tables.thread_table(static_cast<vm::ThreadId>(t)).mapping_count();
        if (stray != 0) {
          add_violation(report, AuditRule::kReplicaCoherence, wi, t,
                        static_cast<double>(stray),
                        "process-wide mode but thread " + std::to_string(t) +
                            " tree holds " + std::to_string(stray) +
                            " mappings");
        }
      }
      break;
    case vm::ReplicationMode::kSharedLeaves: {
      // Every tree must reference the *same* leaf table per 2 MB range
      // (pointer identity is the whole point of shared leaves).
      const vm::Vpn lo = as.base_vpn();
      const std::size_t chunk_count = static_cast<std::size_t>(
          (as.rss_pages() + sim::kPagesPerHuge - 1) / sim::kPagesPerHuge);
      for (std::size_t ci = 0; ci < chunk_count; ++ci) {
        const vm::Vpn vpn = lo + ci * sim::kPagesPerHuge;
        // Raw-pointer identity is the same predicate as LeafRef equality
        // without two shared_ptr refcount round-trips per check.
        const vm::LeafTable* shared = tables.process_table().leaf_of(vpn);
        for (unsigned t = 0; t < threads; ++t) {
          ++report.checks;
          if (tables.thread_table(static_cast<vm::ThreadId>(t))
                  .leaf_of(vpn) != shared) {
            add_violation(report, AuditRule::kReplicaCoherence, wi, vpn,
                          static_cast<double>(t),
                          "thread " + std::to_string(t) +
                              " leaf at vpn " + std::to_string(vpn) +
                              " is not the shared leaf table");
          }
        }
      }
      break;
    }
    case vm::ReplicationMode::kFullReplica:
      // Private leaf copies: every PTE write must have been propagated.
      tables.process_table().visit([&](vm::Vpn vpn, vm::Pte pte) {
        for (unsigned t = 0; t < threads; ++t) {
          ++report.checks;
          const vm::Pte replica =
              tables.thread_table(static_cast<vm::ThreadId>(t)).get(vpn);
          if (replica != pte) {
            add_violation(report, AuditRule::kReplicaCoherence, wi, vpn,
                          static_cast<double>(t),
                          "thread " + std::to_string(t) +
                              " replica diverges at vpn " +
                              std::to_string(vpn));
          }
        }
      });
      break;
  }
}

void InvariantAuditor::check_counters(const SystemView& view,
                                      AuditReport& report) const {
  if (!view.registry) return;
  const obs::Registry& reg = *view.registry;

  const auto expect = [&](const std::string& key, std::uint64_t truth) {
    if (!reg.has_counter(key)) return;  // not instrumented in this setup
    ++report.checks;
    const std::uint64_t actual = reg.counter_value(key);
    if (actual != truth) {
      add_violation(report, AuditRule::kCounterDrift, -1, 0,
                    static_cast<double>(actual),
                    key + " = " + std::to_string(actual) +
                        " but ground truth is " + std::to_string(truth));
    }
  };

  if (view.shootdowns) {
    const vm::ShootdownController::Stats& s = view.shootdowns->stats();
    expect("vm.shootdown.operations", s.shootdowns);
    expect("vm.shootdown.ipis", s.ipis);
    expect("vm.shootdown.cycles", s.cycles);
  }

  std::uint64_t migrated = 0, failed = 0, shadow_remaps = 0, bytes = 0;
  bool any_migrator = false;
  for (const WorkloadView& w : view.workloads) {
    if (!w.migrator) continue;
    any_migrator = true;
    const mig::MigrationStats& t = w.migrator->totals();
    migrated += t.migrated;
    failed += t.failed;
    shadow_remaps += t.shadow_remaps;
    bytes += t.bytes_copied;
  }
  if (any_migrator) {
    expect("mig.pages_migrated", migrated);
    expect("mig.pages_failed", failed);
    expect("mig.shadow_remaps", shadow_remaps);
    expect("mig.bytes_copied", bytes);
  }

  expect("runtime.epochs", view.epochs_run);

  // Per-app residency gauges are refreshed after migrations each epoch, so
  // at an epoch boundary they must equal the live census. Departed apps no
  // longer receive samples — their gauge freezes at its last live value
  // while the census drops to zero, so they are exempt here (the departed
  // checks pin the census itself).
  for (const WorkloadView& w : view.workloads) {
    if (w.departed) continue;
    const std::string key =
        "app.fast_pages{app=" + std::to_string(w.index) + "}";
    if (!reg.has_gauge(key)) continue;
    ++report.checks;
    const double truth =
        static_cast<double>(w.as->pages_in_tier(mem::kFastTier));
    const double actual = reg.gauge_value(key);
    if (actual != truth) {
      add_violation(report, AuditRule::kCounterDrift,
                    static_cast<std::int32_t>(w.index), 0, actual,
                    key + " = " + std::to_string(actual) +
                        " but the census holds " + std::to_string(truth));
    }
  }
}

AuditReport InvariantAuditor::audit(const SystemView& view) const {
  AuditReport report;
  report.level = level_;
  report.epoch = view.epochs_run;
  if (level_ == AuditLevel::kOff || !view.topology) return report;

  FrameLedger frames;
  frames.init(*view.topology);
  std::vector<WalkResult> walks(view.workloads.size());
  for (std::size_t i = 0; i < view.workloads.size(); ++i) {
    const WorkloadView& w = view.workloads[i];
    if (!w.as) continue;
    check_workload(w, *view.topology, frames, report, walks[i]);
    check_replicas(w, report);
    if (w.departed) check_departed(w, *view.topology, report);
  }
  for (WalkResult& walk : walks) {
    if (walk.tier_pages.empty()) {
      walk.tier_pages.assign(view.topology->tier_count(), 0);
    }
  }
  check_frames(view, walks, frames, report);
  check_tlbs(view, report);
  check_pwc(view, report);
  if (view.provenance) check_provenance(view, report);
  if (level_ >= AuditLevel::kFull) check_counters(view, report);
  return report;
}

void InvariantAuditor::check_provenance(const SystemView& view,
                                        AuditReport& report) const {
  const obs::ProvenanceLedger& ledger = *view.provenance;
  for (const WorkloadView& w : view.workloads) {
    if (!w.as) continue;
    const auto app = static_cast<std::int32_t>(w.index);
    const vm::AddressSpace& as = *w.as;
    const vm::Vpn base = as.base_vpn();
    // Every ledger-tracked page must be mapped at the tier the ledger's
    // transition history says it last landed in.
    ledger.for_each_residency(app, [&](std::uint64_t page,
                                       std::int32_t tier) {
      ++report.checks;
      const vm::Pte pte = as.tables().get(base + page);
      if (!pte.present()) {
        add_violation(report, AuditRule::kProvenanceResidency, app, page,
                      static_cast<double>(tier),
                      "ledger-resident page " + std::to_string(page) +
                          " is not mapped");
        return;
      }
      const auto live = static_cast<std::int32_t>(mem::tier_of(pte.pfn()));
      if (live != tier) {
        add_violation(report, AuditRule::kProvenanceResidency, app, page,
                      static_cast<double>(live),
                      "ledger says page " + std::to_string(page) +
                          " is in tier " + std::to_string(tier) +
                          ", PTE says tier " + std::to_string(live));
      }
    });
    // And the ledger must have seen every fault: its resident count tracks
    // the address space's faulted-page census exactly.
    ++report.checks;
    const std::uint64_t tracked = ledger.resident_pages(app);
    if (tracked != as.faulted_pages()) {
      add_violation(report, AuditRule::kProvenanceResidency, app, tracked,
                    static_cast<double>(as.faulted_pages()),
                    "ledger tracks " + std::to_string(tracked) +
                        " resident pages, address space faulted " +
                        std::to_string(as.faulted_pages()));
    }
  }
}

}  // namespace vulcan::check
