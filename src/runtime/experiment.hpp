// Experiment helpers shared by the benchmark harnesses: policy factory,
// staged workload arrival, the paper's §5.3 co-location scenario
// (Memcached from t=0, PageRank from t=50 s, Liblinear from t=110 s), and
// the parallel experiment batteries (independent deterministic runs fanned
// out across an exec::BatchRunner, merged in submission order).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "obs/diff.hpp"
#include "runtime/builder.hpp"
#include "runtime/system.hpp"

namespace vulcan::runtime {

/// Build one of the evaluated systems: "tpp", "memtis", "nomad", "mtm",
/// "cascade", "vulcan". Throws std::invalid_argument for anything else.
std::unique_ptr<policy::SystemPolicy> make_policy(std::string_view name,
                                                  unsigned online_cpus = 32);

/// Every policy name make_policy accepts, Vulcan first then the baselines
/// in paper order — the roster `vulcan_sim --policies all` compares.
std::span<const std::string> all_policy_names();

/// A workload that joins the system at `start_s` simulated seconds and —
/// for fleet-churn scenarios — departs at `end_s` (infinity = stays for
/// the whole run, the historical behaviour).
struct StagedWorkload {
  double start_s = 0.0;
  std::unique_ptr<wl::Workload> workload;
  double end_s = std::numeric_limits<double>::infinity();
};

/// The paper's dynamic co-location timeline (Table 2 workloads).
std::vector<StagedWorkload> paper_colocation(std::uint64_t seed = 1);

/// The two-app cold-page-dilemma co-location (Fig. 1): a latency-critical
/// hot-set service from t=0 joined by a best-effort sequential scanner at
/// t=10 s. Shared by `vulcan_sim --scenario dilemma`, the CI fairness
/// smoke, and the what-if engine's built-in scenario.
std::vector<StagedWorkload> dilemma_colocation(std::uint64_t seed = 42);

/// Drive `sys` until `end_s`, admitting staged workloads at their start
/// times (the vector need not be sorted by start time; same-epoch ties
/// admit in vector order) and retiring them
/// (TieredSystem::remove_workload) once their StagedWorkload::end_s
/// passes; `on_epoch` (optional) observes the system after every epoch.
void run_staged(TieredSystem& sys, std::vector<StagedWorkload> stages,
                double end_s,
                const std::function<void(TieredSystem&)>& on_epoch = {});

// --------------------------------------------------------------- batteries
//
// A battery is a set of independent deterministic runs. Each job builds
// its own system via build_scenario (registry, trace ring, RNG and all),
// executes on an exec::BatchRunner, and merges in submission order — so
// battery output is byte-identical for any `jobs` count, including 1. Pass
// `jobs` = 0 for hardware concurrency (capped by the job count); pass
// `stats` to receive the real-time accounting (never part of the
// deterministic results).

/// A re-runnable full-system scenario: the one scenario type the policy
/// battery, the what-if engine, the fuzzer and `vulcan_sim` all run.
/// `stage` must rebuild the staged workloads from the seed on every call
/// (each run stages its own copies); `configure` (optional) applies extra
/// builder configuration before the per-run seed and policy are set.
struct ScenarioSpec {
  std::string name = "dilemma";
  double seconds = 20.0;
  std::uint64_t seed = 42;
  std::function<void(SystemBuilder&)> configure;
  std::function<std::vector<StagedWorkload>()> stage;
  /// Capture each run's time-series store (JSONL) into
  /// PolicyRunSummary::timeseries. Off by default: the capture is
  /// deterministic but large, and most batteries never read it.
  bool capture_timeseries = false;
  /// Enable the provenance ledger on each run and capture its finalized
  /// decision/transition JSONL exports into the summary. Off by default
  /// (the ledger changes the registry via mig.abort counters, so digest
  /// consumers opt in explicitly).
  bool capture_provenance = false;
  /// Admission-control ablation: when set, each policy runs TWICE — first
  /// without admission (the summary's regular fields, byte-identical to a
  /// compare-free battery), then again with this spec enabled, summarised
  /// into PolicyRunSummary::admission. Nothing else about the battery
  /// changes: same scenario, same per-policy seed.
  std::optional<mig::AdmissionSpec> admission_compare;
};

/// Build (but do not run) `spec` under `policy`: apply spec.configure,
/// turn the provenance ledger on when spec.capture_provenance is set, apply
/// `extra` (optional), then set spec.seed and the policy. The one place a
/// ScenarioSpec becomes a system; throws std::runtime_error("<policy>:
/// <build error>") when SystemBuilder::build() rejects the configuration.
std::unique_ptr<TieredSystem> build_scenario(
    const ScenarioSpec& spec, std::string_view policy,
    const std::function<void(SystemBuilder&)>& extra = {});

/// One tail-fairness reporting window of a run's time-series store.
struct FleetWindowRow {
  std::uint64_t window = 0;     ///< TimeSeriesStore window index
  double time_s = 0.0;          ///< window start in simulated seconds
  double worst_slowdown = 1.0;  ///< max worst-app slowdown in the window
  double jain_min = 1.0;        ///< windowed floor of per-epoch Jain
  double live_apps = 0.0;       ///< live workloads at the window's end
};

/// Assemble the per-window tail-fairness rows from a finished run's
/// time-series store (the worst-slowdown / Jain / live-app gauges all
/// observe at the same epoch boundaries, so their windows align).
std::vector<FleetWindowRow> fleet_windows(const obs::TimeSeriesStore& store);

/// One policy's end-to-end result over a ScenarioSpec.
struct PolicyRunSummary {
  std::string policy;
  double jain = 1.0;  ///< app.fairness.jain_cumulative
  double cfi = 1.0;   ///< Eq. 4 FTHR-weighted fairness
  /// (workload name, steady-state slowdown) in registration order,
  /// averaged over the second half of the run like `vulcan_sim`.
  std::vector<std::pair<std::string, double>> apps;
  obs::MetricsSnapshot snapshot;  ///< the run's full registry
  /// Tail fairness over the time-series windows the run retained (oldest
  /// first): the max and p99 of the per-window worst-app slowdown and the
  /// minimum windowed Jain.
  std::vector<FleetWindowRow> windows;
  double worst_slowdown_overall = 1.0;
  double worst_slowdown_p99 = 1.0;
  double jain_floor = 1.0;
  /// Migration cost summed over every workload slot: pages migrated and
  /// remote cores interrupted by shootdowns.
  std::uint64_t pages_migrated = 0;
  std::uint64_t shootdown_ipis = 0;
  /// Admission-controller verdict totals (0 when no controller is wired).
  std::uint64_t admitted = 0;
  std::uint64_t vetoed = 0;
  /// The run's time-series export (JSONL rows) when the scenario set
  /// capture_timeseries; empty otherwise. Not part of the fuzz digest.
  std::string timeseries;
  /// The run's finalized provenance exports (JSONL rows) when the scenario
  /// set capture_provenance; empty otherwise. Not part of the fuzz digest.
  std::string decisions;
  std::string transitions;
  /// The with-admission rerun when the scenario set admission_compare
  /// (its own exports stay empty); null otherwise.
  std::shared_ptr<const PolicyRunSummary> admission;
};

/// Run `spec` once per policy, fanning the runs out across `jobs` workers.
/// Summaries come back in `policies` order; a policy whose run throws
/// fails the whole battery with a std::runtime_error naming it.
std::vector<PolicyRunSummary> run_policy_battery(
    const ScenarioSpec& spec, std::span<const std::string> policies,
    unsigned jobs = 1, exec::BatchStats* stats = nullptr);

}  // namespace vulcan::runtime
