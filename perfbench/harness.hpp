// perfbench harness: the three benchmark workloads, one timed system run,
// and the estimators the benchmark reports.
//
// Every host time here is thread-CPU time of the single benchmark thread.
// A workload is a fixed list of simulated systems (one per policy run); a
// repetition builds and runs each of them once. Because the simulation is
// deterministic in the seed, epoch e of a system does identical work in
// every repetition, so the benchmark keeps, per epoch, the minimum time
// over repetitions and derives every host-time metric from those minima.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/builder.hpp"
#include "runtime/experiment.hpp"

namespace perfbench {

/// Host CPU time consumed so far by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

/// One simulated system of a workload: one policy over one staged scenario.
struct SystemSpec {
  std::string policy;
  double sim_seconds = 0.0;
  /// The benchmark seed, also the system's own (SystemBuilder::seed).
  std::uint64_t seed = 42;
  /// Builds the scenario from the workload's seed (timed as set-up).
  std::function<std::vector<vulcan::runtime::StagedWorkload>()> stage;
  /// Builder configuration beyond the defaults; may be empty.
  std::function<void(vulcan::runtime::SystemBuilder&)> configure;
  /// Fleet runs take their worst slowdown from the windowed time series
  /// (FleetPolicyResult::worst_slowdown_overall), the others from the
  /// second-half per-app slowdowns (PolicyRunSummary::apps).
  bool fleet = false;
};

struct WorkloadSpec {
  std::string name;
  /// systems[0] is the vulcan run the sim_* metrics read.
  std::vector<SystemSpec> systems;
  /// Host seconds one repetition takes on the reference machine (4-vCPU
  /// x86-64 container, Release build). The repetition count is
  /// max(3, floor(--seconds / nominal_rep_seconds)), fixed by the
  /// arguments alone so that two runs always use the same estimator.
  double nominal_rep_seconds = 1.0;
};

/// The benchmark's workloads, in documentation order.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for a name not in workload_names().
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// Simulated outcome of one system run. Deterministic in the seed, so it
/// must repeat exactly across repetitions and between traced and untraced
/// runs; the benchmark counts any difference as a failed run.
struct SimResult {
  std::string policy;
  double jain = 0.0;  ///< app_stats().jain_cumulative()
  double cfi = 0.0;   ///< Eq. 4 CFI
  /// Second-half slowdown per workload slot, in registration order.
  std::vector<double> slowdowns;
  double worst_slowdown = 1.0;
  std::uint64_t epochs = 0;
  std::uint64_t tlb_hits = 0, tlb_misses = 0;
  std::uint64_t pwc_hits = 0, pwc_misses = 0;
  std::uint64_t shootdown_ipis = 0;
  std::uint64_t pages_migrated = 0, pages_failed = 0;
  std::uint64_t trace_emitted = 0, trace_dropped = 0;
  /// AuditReport::checks summed over every epoch's audit.
  std::uint64_t audit_checks = 0;
  /// core::fnv1a of the registry JSON and of the time-series export.
  std::uint64_t registry_digest = 0;
  std::uint64_t timeseries_digest = 0;

  std::uint64_t samples() const { return tlb_hits + tlb_misses; }
  /// core::fnv1a over every field above.
  std::uint64_t digest() const;
  bool operator==(const SimResult&) const = default;
};

/// In-memory span log of a traced invocation, written out at exit. Spans of
/// one epoch share (rep, system, epoch); a span's parent is the epoch span
/// it ran inside, or 0 at top level.
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    std::uint32_t rep = 0;
    std::uint32_t system = 0;
    std::uint32_t epoch = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    /// Calls the span covers (the per-access loops time many at once).
    std::uint64_t ops = 1;
  };

  /// Appends a closed span and returns its id (ids start at 1).
  std::uint32_t add(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  void write_jsonl(std::ostream& out,
                   const std::vector<std::string>& system_names) const;

 private:
  std::vector<Span> spans_;
};

/// Host times of one traced system run: the per-epoch children of the
/// epoch span, and ns per call of the per-access primitives, timed in tight
/// loops against the run's final state.
struct LayerTimes {
  std::vector<std::uint64_t> plan_ns, audit_ns, observe_ns;
  std::uint64_t next_access_ops = 0, next_access_ns = 0;
  std::uint64_t translate_ops = 0, translate_ns = 0;
  std::uint64_t profiler_ops = 0, profiler_ns = 0;
};

struct SystemRun {
  SimResult result;
  std::uint64_t setup_ns = 0;
  /// Host time of each run_staged iteration (admissions, departures and
  /// run_epochs(1)), observed through its on_epoch callback.
  std::vector<std::uint64_t> epoch_ns;
  LayerTimes layers;  ///< filled by traced runs only
};

/// Where a traced run records its spans.
struct TraceSink {
  SpanLog* log = nullptr;
  std::uint32_t rep = 0;
  std::uint32_t system = 0;
};

/// Build and run one system. Untraced (`trace` null): the system runs with
/// its own periodic audit and time-series store. Traced: plan_epoch goes
/// through a forwarding policy that times it, the periodic audit and store
/// are switched off and the benchmark calls both after each epoch, and the
/// per-access primitives are timed after the run. Both produce the same
/// SimResult. Throws on a build error or a failed audit.
SystemRun run_system(const SystemSpec& spec, const TraceSink* trace);

/// Scenario generation plus SystemBuilder::build() alone, in ns.
std::uint64_t setup_only(const SystemSpec& spec);

/// Element-wise minimum of equally long series (one per repetition).
std::vector<std::uint64_t> elementwise_min(
    const std::vector<std::vector<std::uint64_t>>& series);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values.
double quantile(std::vector<double> values, double q);

/// Build identity of this binary.
const char* compiler_id();
const char* build_type();

}  // namespace perfbench
