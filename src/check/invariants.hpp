// vulcan::check — system-wide invariant auditor.
//
// The simulator maintains the same redundant state a real kernel does: frame
// allocators, per-tier residency censuses, radix page tables (replicated
// per-thread), TLBs, shadow registries and observability counters all
// describe overlapping views of one machine. The InvariantAuditor
// cross-validates those views at epoch boundaries and reports every
// discrepancy as a structured violation — turning "the numbers looked odd"
// into a deterministic, test-able oracle. The DifferentialFuzzer
// (check/fuzz.hpp) drives randomized scenarios through this oracle across
// policies and job counts.
//
// Layering: check depends on mem/vm/mig/obs only. The runtime populates a
// SystemView snapshot (runtime::TieredSystem::audit_view) so the auditor
// never needs to know about policies or workload generators.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mem/topology.hpp"
#include "mig/migrator.hpp"
#include "obs/metrics.hpp"
#include "vm/address_space.hpp"
#include "vm/mmu.hpp"
#include "vm/shootdown.hpp"
#include "vm/tlb.hpp"

namespace vulcan::obs {
class ProvenanceLedger;  // obs/provenance.hpp (kept out of this header)
}  // namespace vulcan::obs

namespace vulcan::check {

/// How much auditing runs at each epoch boundary.
enum class AuditLevel : std::uint8_t {
  kOff,    ///< auditing disabled
  kBasic,  ///< structural invariants: frames, census, chunks, TLBs, replicas
  kFull,   ///< basic + registry-counter cross-checks (drift detection)
};

/// Every invariant family the auditor evaluates. A Violation carries the
/// rule so harnesses (and the trace) can classify failures without parsing
/// messages.
enum class AuditRule : std::uint8_t {
  /// Per tier: allocator.used() == mapped pages in tier + live shadows.
  kFrameConservation,
  /// FrameAllocator::self_check — free list vs bitmap vs used().
  kFrameAllocator,
  /// AddressSpace's per-tier member lists (pages_in_tier /
  /// faulted_pages) vs a page-table walk.
  kCensus,
  /// The same physical frame referenced by two live mappings/shadows.
  kDuplicateFrame,
  /// A live PTE (or shadow) referencing a frame the allocator thinks free.
  kFreedFrame,
  /// ChunkState vs reality: kHuge => 512 present pages in one tier,
  /// kUnfaulted => none present, kBasePages => at least one present.
  kChunkCoherence,
  /// A cached 4 KB TLB entry whose translation is absent or diverges from
  /// the current page tables (a missed shootdown).
  kTlbTranslation,
  /// A cached 2 MB TLB entry covering a chunk that is no longer
  /// huge-mapped, or whose representative translation diverges.
  kTlbHugeCoverage,
  /// Replicated page tables out of sync with the process-wide tree
  /// (per ReplicationMode: empty thread trees / shared-leaf identity /
  /// full PTE equality).
  kReplicaCoherence,
  /// Registry counters drifted from the subsystem ground truth they
  /// mirror (shootdowns, migrations, epochs, per-app residency gauges).
  kCounterDrift,
  /// A vm::Mmu page-walk-cache entry whose cached leaf pointer diverges
  /// from a fresh walk of the process tree (stale PWC entry).
  kPwcCoherence,
  /// Provenance-ledger residency out of sync with the live page tables: a
  /// ledger-tracked page whose recorded tier diverges from its PTE, or a
  /// per-app resident count that drifted from faulted_pages().
  kProvenanceResidency,
  /// A departed workload still holds machine state: non-zero faulted
  /// pages or tier residency, live shadow frames, or a surviving TLB/PWC
  /// entry for its pid. Departure must return every frame and translation.
  kDepartedResidency,
};

const char* audit_rule_name(AuditRule rule);
const char* audit_level_name(AuditLevel level);
std::optional<AuditLevel> parse_audit_level(std::string_view name);

/// One detected discrepancy.
struct Violation {
  AuditRule rule = AuditRule::kFrameConservation;
  /// Workload index the violation is attributed to; -1 = system-wide.
  std::int32_t workload = -1;
  /// Rule-specific discriminator (vpn, tier id, core id, ...).
  std::uint64_t detail = 0;
  /// The measured value that broke the invariant.
  double value = 0.0;
  /// Human-readable description (stable wording, test-pinnable prefix).
  std::string message;
};

/// Outcome of one audit pass.
struct AuditReport {
  std::uint64_t epoch = 0;      ///< epochs completed when the audit ran
  std::uint64_t checks = 0;     ///< individual assertions evaluated
  AuditLevel level = AuditLevel::kOff;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Render a report as a multi-line human-readable summary (one line per
/// violation, capped; used by AuditFailure::what and the CLI).
std::string format_report(const AuditReport& report);

/// Thrown by the runtime when an audit fails and Config::audit_throw is on.
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(AuditReport report)
      : std::runtime_error(format_report(report)), report_(std::move(report)) {}
  const AuditReport& report() const { return report_; }

 private:
  AuditReport report_;
};

/// One managed workload, as the auditor sees it.
struct WorkloadView {
  std::size_t index = 0;
  const vm::AddressSpace* as = nullptr;
  /// Optional: shadow frames count toward conservation when present.
  const mig::Migrator* migrator = nullptr;
  /// Fleet churn: the workload has left the system. Its slot stays in the
  /// snapshot (index stability) but it must hold no frames, shadows or
  /// cached translations (kDepartedResidency).
  bool departed = false;
};

/// Snapshot of the whole machine. Pointers are non-owning; null optional
/// subsystems simply skip their checks.
struct SystemView {
  const mem::Topology* topology = nullptr;
  std::vector<WorkloadView> workloads;
  const std::vector<vm::Tlb>* tlbs = nullptr;
  /// Translation facade; when present its page-walk cache is audited
  /// against fresh radix walks (kPwcCoherence).
  const vm::Mmu* mmu = nullptr;
  const vm::ShootdownController* shootdowns = nullptr;
  const obs::Registry* registry = nullptr;
  /// Decision provenance ledger; when present its per-app residency view
  /// is cross-audited against the live page tables
  /// (kProvenanceResidency). Null when the ledger is disabled.
  const obs::ProvenanceLedger* provenance = nullptr;
  std::uint64_t epochs_run = 0;
};

/// Cross-validates every redundant view of machine state. Stateless apart
/// from the configured level; audit() may run on any consistent snapshot
/// (epoch boundaries in the runtime, arbitrary points in tests).
class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditLevel level = AuditLevel::kBasic)
      : level_(level) {}

  AuditLevel level() const { return level_; }

  /// Run every check enabled by the level. Never throws; callers decide
  /// how to escalate (the runtime throws AuditFailure when configured).
  AuditReport audit(const SystemView& view) const;

 private:
  struct WalkResult;   // per-workload page-table walk aggregation
  struct FrameLedger;  // cross-workload frame ownership (duplicate checks)

  void check_workload(const WorkloadView& w, const mem::Topology& topo,
                      FrameLedger& frames, AuditReport& report,
                      WalkResult& out) const;
  void check_frames(const SystemView& view,
                    const std::vector<WalkResult>& walks, FrameLedger& frames,
                    AuditReport& report) const;
  void check_tlbs(const SystemView& view, AuditReport& report) const;
  void check_pwc(const SystemView& view, AuditReport& report) const;
  void check_replicas(const WorkloadView& w, AuditReport& report) const;
  void check_counters(const SystemView& view, AuditReport& report) const;
  void check_provenance(const SystemView& view, AuditReport& report) const;
  void check_departed(const WorkloadView& w, const mem::Topology& topo,
                      AuditReport& report) const;

  AuditLevel level_;
};

}  // namespace vulcan::check
