// TieredSystem: the co-location harness. It owns the machine model (tiers,
// per-core TLBs), the managed workloads (address space + profiler + heat
// tracker + migration thread each), and a pluggable SystemPolicy, and runs
// the epoch loop:
//
//   access generation -> TLB/page-table/tier accounting -> profiling
//   -> policy planning -> migration execution -> metrics.
//
// Everything is deterministic in the configured seed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/fairness.hpp"
#include "mem/topology.hpp"
#include "mig/admission.hpp"
#include "mig/migration_thread.hpp"
#include "obs/app_stats.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/scope.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "prof/chrono.hpp"
#include "prof/hybrid.hpp"
#include "prof/pebs.hpp"
#include "prof/pt_scan.hpp"
#include "prof/telescope.hpp"
#include "runtime/metrics.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/rng.hpp"
#include "vm/mmu.hpp"
#include "vm/shootdown.hpp"
#include "wl/workload.hpp"

namespace vulcan::runtime {

enum class ProfilerKind : std::uint8_t {
  kPebs,
  kPtScan,
  kHintFault,
  kHybrid,
  kTelescope,
  kChrono,
};

class TieredSystem {
 public:
  /// Everything a system is built from. Fill one in and construct a
  /// TieredSystem directly, or let runtime::SystemBuilder fill it in;
  /// both paths check it with validate().
  struct Config {
    sim::MachineConfig machine;
    /// Override the two-tier paper testbed with an arbitrary topology
    /// (e.g. HBM + DRAM + CXL three-tier). Tier 0 must be the fastest, and
    /// at most mem::kMaxTiers tiers are supported.
    std::optional<std::vector<mem::TierConfig>> custom_tiers;
    sim::Cycles epoch = sim::CpuClock::from_millis(250);
    /// Simulated access samples per workload per epoch; each carries the
    /// weight (real accesses / samples).
    std::uint64_t samples_per_epoch = 10'000;
    /// Cores dedicated to each application (paper: 8).
    unsigned cores_per_workload = 8;
    /// Heat decay per epoch. Slow enough that a scanner's whole sweep
    /// stays warm across one rotation (Memtis-style long counting window).
    double heat_decay = 0.85;
    ProfilerKind profiler = ProfilerKind::kHybrid;
    bool thp = true;
    std::uint64_t seed = 42;
    /// Structured-trace ring capacity (events retained; oldest dropped).
    std::size_t trace_capacity = 1 << 16;
    /// Record hierarchical timeline spans (epoch -> policy -> migration ->
    /// phases -> shootdowns) into the trace ring, and roll them up into the
    /// per-app attribution metrics. Cheap; off only for span-free traces.
    bool record_spans = true;
    /// Migration-mechanism cost constants. Defaults are the paper-fitted
    /// calibration (sim/cost_model.hpp); the what-if engine
    /// (obs/whatif.hpp) re-runs scenarios with individual constants scaled
    /// to measure each mechanism's causal share of slowdown.
    sim::CostModelParams cost_params;
    /// Invariant auditing (check/invariants.hpp): at the end of every
    /// `audit_every`-th epoch the InvariantAuditor cross-validates frame
    /// allocators, residency censuses, chunk states, TLBs and replicated
    /// page tables (plus registry counters at kFull). On by default — the
    /// audit is the regression net every integration test rides on.
    check::AuditLevel audit = check::AuditLevel::kBasic;
    std::uint64_t audit_every = 1;
    /// Throw check::AuditFailure from run_epochs on a violation (default);
    /// when false the report is only recorded (last_audit()) and traced.
    bool audit_throw = true;
    /// vm::Mmu software page-walk cache. Host-side only: the cost model
    /// still charges the full walk on every TLB miss, so artefacts are
    /// bit-identical with the PWC on or off (the fuzz oracle varies it).
    bool pwc = true;
    /// Access-pipeline batch size: the engine generates, translates and
    /// accounts accesses in batches of this many through
    /// vm::Mmu::translate_batch. Behavior-neutral by contract — any value
    /// >= 1 produces byte-identical artefacts (fuzz-enforced).
    std::uint64_t translate_batch = 256;
    /// Continuous telemetry (obs/timeseries.hpp): the always-on windowed
    /// time-series store fed from the registry at every epoch boundary.
    /// Read-only over the registry, so default artefacts are unchanged.
    obs::TimeSeriesConfig timeseries;
    /// SLO rules (obs/slo.hpp) evaluated over the store each epoch. Opt-in
    /// — installed rules add slo.* counters to the registry snapshot, and
    /// the fuzz oracle pins snapshots of rule-free runs.
    std::vector<obs::SloSpec> slo_rules;
    /// Flight-recorder trace-tail horizon, in epochs.
    std::size_t flight_epochs = 64;
    /// Flight-recorder auto-dump destination: written at most once, on the
    /// first of AuditFailure / critical SLO firing / engine exception.
    /// Empty disables auto dumps (on-demand dump_flight still works).
    std::string flight_dump_path;
    /// Master switch for the telemetry storey (store + SLO + flight
    /// recorder). The hotpath bench guard measures against a telemetry-off
    /// run; everywhere else leave it on.
    bool telemetry = true;
    /// Decision provenance ledger (obs/provenance.hpp). Off by default —
    /// when disabled the ledger records nothing and every call site costs
    /// one branch, so pinned fuzz digests and default artefacts are
    /// byte-identical to a build without it.
    obs::ProvenanceConfig provenance;
    /// Migration admission control (mig/admission.hpp). Off by default —
    /// when disabled no controller is constructed, the migrators carry a
    /// null pointer, no adm.* counters enter the registry, and every
    /// artefact is byte-identical to an admission-free build.
    mig::AdmissionSpec admission;
  };

  /// Why `config` cannot be run, or an empty string when it can. The one
  /// check behind both construction paths: the constructor throws its
  /// message, SystemBuilder::build() returns it as the error.
  static std::string validate(const Config& config);

  /// Throws std::invalid_argument with validate()'s message when `config`
  /// is invalid.
  TieredSystem(Config config, std::unique_ptr<policy::SystemPolicy> policy);
  ~TieredSystem();
  TieredSystem(const TieredSystem&) = delete;
  TieredSystem& operator=(const TieredSystem&) = delete;

  /// Register a workload; its RSS is demand-faulted as it runs. Returns the
  /// workload index. Each application may select its own profiling
  /// mechanism (§3.2 "decoupled page profiling selection"); by default it
  /// inherits the system-wide Config::profiler.
  unsigned add_workload(std::unique_ptr<wl::Workload> workload,
                        std::optional<ProfilerKind> profiler = std::nullopt);

  /// Retire workload `w` (fleet churn): drop its queued migrations, free
  /// its shadow frames, release every mapped frame back to the allocators,
  /// invalidate its cached translations (pid-targeted TLB + PWC flush) and
  /// tell the policy to forget it. The slot stays in place — indices are
  /// stable and auditable — but the workload stops generating accesses,
  /// being planned, or contributing metrics, and the auditor's
  /// departed-residency rule pins that it holds nothing. Idempotent.
  void remove_workload(unsigned w);
  /// True once `w` has been retired via remove_workload().
  bool workload_departed(unsigned w) const {
    return workloads_[w]->departed;
  }
  /// Workloads admitted and not yet departed.
  std::size_t live_workload_count() const;

  /// Run `count` epochs.
  void run_epochs(unsigned count);

  /// Pre-fault workload `w`'s entire RSS, interleaving pages across the
  /// tiers round-robin (the Nomad-style microbenchmark setup: data placed
  /// in specific tier segments before measurement, so migration actually
  /// has work to do). `fast_stride` of every `fast_stride + slow_stride`
  /// pages land fast while capacity lasts.
  void prefault(unsigned w, unsigned fast_stride = 1,
                unsigned slow_stride = 1);

  double now_seconds() const {
    return sim::CpuClock::to_seconds(now_);
  }
  std::size_t workload_count() const { return workloads_.size(); }

  const MetricsRecorder& metrics() const { return metrics_; }
  policy::SystemPolicy& policy() { return *policy_; }
  mem::Topology& topology() { return *topo_; }
  core::CfiAccumulator& cfi() { return cfi_; }

  /// The system-wide metrics registry every subsystem reports into.
  obs::Registry& obs_registry() { return registry_; }
  const obs::Registry& obs_registry() const { return registry_; }
  /// The structured event trace (epoch/migration/shootdown/policy records).
  const obs::TraceRing& obs_trace() const { return trace_; }
  /// Per-app fairness attribution rolled up from epochs and closing spans.
  const obs::AppStats& app_stats() const { return app_stats_; }
  /// The windowed time-series store (inert when Config::telemetry is off).
  const obs::TimeSeriesStore& obs_timeseries() const { return timeseries_; }
  /// The SLO monitor; null unless Config::slo_rules installed one.
  const obs::SloMonitor* slo_monitor() const {
    return slo_ ? &*slo_ : nullptr;
  }
  /// The black-box flight recorder over this system's telemetry.
  const obs::FlightRecorder& flight() const { return flight_; }
  /// The decision provenance ledger (inert unless Config::provenance
  /// enabled it). Non-const access so harnesses can finalize() before
  /// exporting.
  obs::ProvenanceLedger& provenance() { return provenance_; }
  const obs::ProvenanceLedger& provenance() const { return provenance_; }
  /// The migration admission controller; null unless Config::admission
  /// enabled it. Harnesses read its admitted()/vetoed() totals for the
  /// with/without battery columns.
  const mig::AdmissionController* admission_controller() const {
    return admission_ ? &*admission_ : nullptr;
  }
  /// On-demand flight dump to `path`. False when telemetry is off or the
  /// file cannot be written.
  bool dump_flight(const std::string& path,
                   const std::string& reason = "on_demand",
                   const std::string& cause = "");

  /// Eq. 4 fairness over everything run so far.
  double fairness_cfi() const { return cfi_.cfi(); }

  // Introspection for experiment harnesses.
  vm::AddressSpace& address_space(unsigned w) { return *workloads_[w]->as; }
  prof::HeatTracker& tracker(unsigned w) { return *workloads_[w]->tracker; }
  wl::Workload& workload(unsigned w) { return *workloads_[w]->workload; }
  mig::Migrator& migrator(unsigned w) { return *workloads_[w]->migrator; }
  const vm::ShootdownController& shootdowns() const { return *shootdowns_; }
  std::uint64_t migration_budget_pages() const { return migration_budget_; }
  /// The translation facade: per-core TLBs + page-walk cache.
  vm::Mmu& mmu() { return *mmu_; }
  const vm::Mmu& mmu() const { return *mmu_; }

  /// Snapshot of the machine for the invariant auditor.
  check::SystemView audit_view() const;
  /// Run an audit now (at Config::audit level, kFull when auditing is
  /// off), record it as last_audit(), emit trace events/counters, and
  /// throw check::AuditFailure per Config::audit_throw.
  const check::AuditReport& run_audit();
  /// Most recent audit outcome (empty report before the first audit).
  const check::AuditReport& last_audit() const { return last_audit_; }

 private:
  struct ManagedWorkload {
    std::unique_ptr<wl::Workload> workload;
    std::unique_ptr<vm::AddressSpace> as;
    std::unique_ptr<prof::HeatTracker> tracker;
    std::unique_ptr<prof::Profiler> profiler;
    std::unique_ptr<mig::Migrator> migrator;
    std::unique_ptr<mig::MigrationThread> migration_thread;
    std::vector<vm::CoreId> cores;
    /// Fleet churn: retired via remove_workload(). The slot persists for
    /// index stability but is skipped by every epoch phase.
    bool departed = false;
    // Per-epoch scratch (reset each epoch):
    double epoch_fast = 0, epoch_slow = 0;
    double epoch_latency_weighted = 0;  ///< sum of exposed latency x weight
    sim::Cycles epoch_inline_overhead = 0;  ///< faults + profiler costs
    mig::MigrationStats epoch_migration;
  };

  void run_one_epoch();
  const check::AuditReport& run_audit_internal(bool throw_on_failure);
  void simulate_accesses(ManagedWorkload& mw, double epoch_seconds,
                         std::uint64_t sample_quota);
  /// Record ledger alloc transitions for every page a fault populated.
  /// THP faults fill a whole 512-page chunk (possibly split across tiers
  /// under allocator fallback), so the chunk is swept and each previously
  /// unknown present page recorded at its own tier.
  void record_fault_alloc(vm::AddressSpace& as, vm::Vpn vpn);
  std::unique_ptr<prof::Profiler> make_profiler(prof::HeatTracker& tracker,
                                                ProfilerKind kind);

  Config config_;
  // Declared before the subsystems that cache instrument pointers into them.
  obs::Registry registry_;
  obs::TraceRing trace_;
  obs::SpanRecorder spans_;
  obs::AppStats app_stats_;
  // Declared before workloads_ so migrators' ledger pointers stay valid
  // for their whole lifetime.
  obs::ProvenanceLedger provenance_;
  // Same ordering rule: the migrators hold raw pointers to the shared
  // admission controller, so it must outlive workloads_.
  std::optional<mig::AdmissionController> admission_;
  std::unique_ptr<policy::SystemPolicy> policy_;
  std::unique_ptr<mem::Topology> topo_;
  std::unique_ptr<vm::Mmu> mmu_;
  std::unique_ptr<vm::ShootdownController> shootdowns_;
  // Reused access-pipeline batch buffers (no per-epoch heap churn).
  std::vector<vm::Mmu::Access> access_batch_;
  std::vector<vm::Mmu::Translation> translation_batch_;
  sim::CostModel cost_;
  std::vector<std::unique_ptr<ManagedWorkload>> workloads_;
  std::vector<policy::WorkloadView> views_;
  // Scratch for step 4: the non-departed subset of views_ handed to the
  // policy each epoch (member to avoid per-epoch reallocation).
  std::vector<policy::WorkloadView> active_views_;
  MetricsRecorder metrics_;
  core::CfiAccumulator cfi_;
  sim::Rng rng_;
  sim::Cycles now_ = 0;
  std::uint64_t epoch_index_ = 0;
  // Ring drops already surfaced as the obs.trace.dropped_events counter.
  std::uint64_t dropped_reported_ = 0;
  std::uint64_t migration_budget_ = 0;
  check::AuditReport last_audit_;
  // Telemetry storey: store + optional monitor + flight recorder (wired in
  // the constructor body, over pointers to the members above).
  obs::TimeSeriesStore timeseries_;
  std::optional<obs::SloMonitor> slo_;
  obs::FlightRecorder flight_;
  unsigned next_core_ = 0;
  // Previous-epoch tier utilisation drives this epoch's loaded latencies.
  std::vector<double> tier_utilization_;
  // Previous epoch's migration traffic (unscaled bytes), loading both tiers.
  double last_migration_bytes_ = 0.0;
};

}  // namespace vulcan::runtime
