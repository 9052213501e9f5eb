// The Migrator executes policy-issued MigrationRequests against one
// process's address space: it allocates destination frames, pays the
// mechanism costs (split by attribution: synchronous work stalls the
// application, asynchronous work burns migration-thread cycles), performs
// the remaps and TLB shootdowns, and maintains shadow copies.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "mig/admission.hpp"
#include "mig/copy_engine.hpp"
#include "mig/mechanism.hpp"
#include "mig/migration.hpp"
#include "mig/shadow.hpp"
#include "sim/rng.hpp"
#include "vm/address_space.hpp"
#include "vm/shootdown.hpp"

namespace vulcan::obs {
class ProvenanceLedger;
}

namespace vulcan::mig {

class Migrator {
 public:
  struct Config {
    MechanismOptions mechanism;
    /// Cores running the process's threads, indexed by thread id modulo
    /// size (thread pinning).
    std::vector<vm::CoreId> process_cores;
    /// Core the migration daemon/thread runs on (shootdown initiator for
    /// async work).
    vm::CoreId daemon_core = 0;
    /// Retain slow-tier shadow copies on promotion (Nomad / Vulcan).
    bool shadowing = false;
    /// Offload page copies to a DMA engine (HeMem-style): the CPU pays
    /// descriptor setup only.
    bool dma_copy = false;
    unsigned async_max_retries = 3;
    /// Cost of splitting a THP before migrating one of its base pages.
    sim::Cycles huge_split_cycles = 20'000;
  };

  Migrator(vm::AddressSpace& as, mem::Topology& topo,
           vm::ShootdownController& shootdowns, const sim::CostModel& cost,
           Config config);

  /// Execute a batch of requests. Returns aggregated stats; cumulative
  /// stats are also kept (see totals()).
  MigrationStats execute(std::span<const MigrationRequest> requests,
                         sim::Rng& rng);

  /// Notify a write to `vpn` (invalidates any shadow: copies diverged).
  void on_write(vm::Vpn vpn) {
    if (config_.shadowing) shadows_.invalidate(vpn);
  }

  ShadowRegistry& shadows() { return shadows_; }
  const ShadowRegistry& shadows() const { return shadows_; }
  const MigrationMechanism& mechanism() const { return mechanism_; }
  const MigrationStats& totals() const { return totals_; }
  const Config& config() const { return config_; }

  /// Attach observability: per-phase cycle counters + begin/end trace
  /// events for every executed request, and outcome counters.
  void set_obs(obs::Scope scope);

  /// Attach the decision provenance ledger: every executed request with a
  /// provenance id gets its outcome linked, every remap records a per-page
  /// tier transition, and the abort{reason=...} counters come live. `app`
  /// is the ledger's workload index for this process. Call after set_obs
  /// (the counters bind against the attached scope).
  void set_provenance(obs::ProvenanceLedger* ledger, std::int32_t app);

  /// Attach the admission controller (shared across workloads, owned by
  /// the runtime). execute() then scores every request before the pipeline
  /// and drops vetoed ones without paying any mechanism cost or consuming
  /// RNG. nullptr (the default) leaves every code path byte-identical to
  /// an admission-free build.
  void set_admission(AdmissionController* controller) {
    admission_ = controller;
  }

  /// Runtime toggle for targeted shootdowns — the §3.6 adaptive
  /// replication knob (per-thread tables can be consulted or ignored
  /// per-epoch based on measured benefit).
  void set_targeted_shootdown(bool on) {
    config_.mechanism.targeted_shootdown = on;
  }

  vm::CoreId core_of(vm::ThreadId thread) const {
    return config_.process_cores.empty()
               ? config_.daemon_core
               : config_.process_cores[thread % config_.process_cores.size()];
  }

 private:
  bool execute_one(const MigrationRequest& req, sim::Rng& rng,
                   MigrationStats& stats);
  bool execute_chunk(const MigrationRequest& req, sim::Rng& rng,
                     MigrationStats& stats);
  /// Drop `req`: the unified abort report (one mig_abort trace event + the
  /// abort{reason=...} counter, both emitted only while a ledger is
  /// attached so the default-config digests stay pinned) shared by the
  /// five-phase and shadow paths, and the reason the outcome linker
  /// records. Always returns false so call sites can
  /// `return abort_request(...)`.
  bool abort_request(const MigrationRequest& req, obs::MigAbortReason reason);
  /// Assemble the controller's view of `req`: direction, path (shadow /
  /// DMA / chunk), the live sharer set the shootdown would IPI, and the
  /// tiers' allocation pressure.
  AdmissionInputs admission_inputs(const MigrationRequest& req);
  /// Report a vetoed request: mig_abort trace event and — satellite of the
  /// no-pending-rows contract — finalize its linked DecisionRecord with
  /// the veto reason (both ledger-gated, like abort_request).
  void veto_request(const MigrationRequest& req, obs::MigAbortReason reason);
  /// Record a page's tier transition in the ledger (no-op when detached).
  void record_move(vm::Vpn vpn, mem::Pfn old_pfn, mem::TierId to,
                   std::uint64_t cause);
  /// Join `req` with what executing it did (deltas of `stats` against
  /// `before`) and link the outcome into the ledger.
  void link_outcome(const MigrationRequest& req, bool executed,
                    const MigrationStats& before, const MigrationStats& stats);
  // The target-set helpers fill `targets_scratch_` and return a view of
  // it: migration waves issue thousands of shootdowns per epoch, so a
  // fresh vector per request was measurable allocator churn. The span is
  // valid until the next helper call; each call site consumes its set
  // before requesting another.
  /// Remote-core target set for a request's shootdown.
  std::span<const vm::CoreId> shootdown_targets(const MigrationRequest& req,
                                                vm::CoreId initiator);
  /// Every process core except the initiator (the broadcast fallback).
  std::span<const vm::CoreId> broadcast_targets(vm::CoreId initiator);
  /// Target set for a batched chunk move: huge-mapped chunks broadcast
  /// (any core that touched any page of the chunk may cache the 2 MB
  /// entry), otherwise the union of the moved pages' exclusive-owner
  /// cores — falling back to broadcast when any moved page is shared.
  std::span<const vm::CoreId> chunk_shootdown_targets(
      std::span<const vm::Vpn> moved, bool was_huge, vm::CoreId initiator);
  /// Account `cycles` of work in `phase` against the attached scope and
  /// return the cycles (so call sites charge their bucket in one line).
  /// By default also records a timeline span advancing the cursor by
  /// `cycles`; pass `with_span = false` when the call site wraps the work
  /// in its own span (the shootdown phase, whose cursor is advanced by the
  /// controller's nested span).
  sim::Cycles phase(obs::MigPhase p, std::uint64_t pages, sim::Cycles cycles,
                    bool with_span = true);
  /// How a content-moving request copies: DMA setup or a CPU copy.
  CopyKind copy_kind() const {
    return config_.dma_copy ? CopyKind::kDma : CopyKind::kCpu;
  }

  vm::AddressSpace* as_;
  mem::Topology* topo_;
  vm::ShootdownController* shootdowns_;
  MigrationMechanism mechanism_;
  Config config_;
  ShadowRegistry shadows_;
  MigrationStats totals_;
  // Reused per-request scratch (see the target-set helpers above and the
  // chunk move loop); capacity sticks at the high-water mark.
  std::vector<vm::CoreId> targets_scratch_;
  std::vector<vm::Vpn> moved_scratch_;
  std::vector<MigrationRequest> admitted_scratch_;
  AdmissionController* admission_ = nullptr;
  obs::Scope obs_;
  std::array<obs::Counter*, 5> phase_cycles_{
      &obs::detail::dummy_counter, &obs::detail::dummy_counter,
      &obs::detail::dummy_counter, &obs::detail::dummy_counter,
      &obs::detail::dummy_counter};
  obs::Counter* obs_migrated_ = &obs::detail::dummy_counter;
  obs::Counter* obs_failed_ = &obs::detail::dummy_counter;
  obs::Counter* obs_shadow_remaps_ = &obs::detail::dummy_counter;
  obs::Counter* obs_bytes_ = &obs::detail::dummy_counter;
  // Provenance attachment (nullptr / dummies by default, so the default
  // configuration records nothing and registry snapshots are unchanged).
  obs::ProvenanceLedger* ledger_ = nullptr;
  std::int32_t prov_app_ = -1;
  std::array<obs::Counter*, 4> abort_counts_{
      &obs::detail::dummy_counter, &obs::detail::dummy_counter,
      &obs::detail::dummy_counter, &obs::detail::dummy_counter};
  // Per-request scratch the outcome linker reads after execute_one.
  obs::MigAbortReason last_abort_ = obs::MigAbortReason::kNone;
  bool last_partial_ = false;
};

}  // namespace vulcan::mig
