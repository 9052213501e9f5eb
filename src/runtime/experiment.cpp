#include "runtime/experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/manager.hpp"
#include "policy/cascade.hpp"
#include "policy/threshold.hpp"
#include "policy/watermark.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {

std::unique_ptr<policy::SystemPolicy> make_policy(std::string_view name,
                                                  unsigned online_cpus) {
  if (name == "tpp") {
    policy::TppPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::TppPolicy>(p);
  }
  if (name == "memtis") {
    policy::MemtisPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::MemtisPolicy>(p);
  }
  if (name == "nomad") {
    policy::NomadPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::NomadPolicy>(p);
  }
  if (name == "mtm") {
    policy::MtmPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::MtmPolicy>(p);
  }
  if (name == "cascade") {
    policy::CascadePolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::CascadePolicy>(p);
  }
  if (name == "vulcan") {
    core::VulcanManager::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<core::VulcanManager>(p);
  }
  throw std::invalid_argument("unknown policy: " + std::string(name));
}

std::span<const std::string> all_policy_names() {
  static const std::array<std::string, 6> kNames = {
      "vulcan", "tpp", "memtis", "nomad", "mtm", "cascade"};
  return kNames;
}

std::vector<StagedWorkload> paper_colocation(std::uint64_t seed) {
  std::vector<StagedWorkload> stages;
  stages.push_back({0.0, wl::make_memcached(seed * 1000 + 101)});
  stages.push_back({50.0, wl::make_pagerank(seed * 1000 + 202)});
  stages.push_back({110.0, wl::make_liblinear(seed * 1000 + 303)});
  return stages;
}

namespace {

std::unique_ptr<wl::Workload> dilemma_lc(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "lc-service";
  s.service_class = wl::ServiceClass::kLatencyCritical;
  s.rss_pages = 8192;
  s.wss_pages = 8192;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 2e5;
  s.latency_exposure = 1.0;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::HotsetPattern>(s.rss_pages, 0.10, 0.90, 0.10),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.10), seed);
}

std::unique_ptr<wl::Workload> dilemma_be(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "be-scanner";
  s.rss_pages = 12'288;
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;
  s.latency_exposure = 0.3;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.05),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.05), seed);
}

}  // namespace

std::vector<StagedWorkload> dilemma_colocation(std::uint64_t seed) {
  std::vector<StagedWorkload> stages;
  stages.push_back({0.0, dilemma_lc(seed * 7 + 1)});
  stages.push_back({10.0, dilemma_be(seed * 7 + 2)});
  return stages;
}

void run_staged(TieredSystem& sys, std::vector<StagedWorkload> stages,
                double end_s,
                const std::function<void(TieredSystem&)>& on_epoch) {
  // (workload index, departure time) of every admitted finite-lifetime
  // stage, in admission order.
  std::vector<std::pair<unsigned, double>> lifetimes;
  std::size_t pending = stages.size();
  while (sys.now_seconds() < end_s) {
    // Departures before arrivals: a slot leaving at t frees its frames for
    // anything arriving at the same boundary.
    for (const auto& [index, depart_s] : lifetimes) {
      if (depart_s <= sys.now_seconds() + 1e-9 &&
          !sys.workload_departed(index)) {
        sys.remove_workload(index);
      }
    }
    // Stages need not be sorted by start time (the fleet generator emits
    // them in app-id order so per-app draws stay resize-stable), so scan
    // for every due, not-yet-admitted stage; a moved-out workload pointer
    // marks admission. Ties admit in vector order — deterministic.
    for (std::size_t i = 0; pending > 0 && i < stages.size(); ++i) {
      if (!stages[i].workload) continue;
      if (stages[i].start_s > sys.now_seconds() + 1e-9) continue;
      const unsigned index = sys.add_workload(std::move(stages[i].workload));
      if (stages[i].end_s < end_s) {
        lifetimes.emplace_back(index, stages[i].end_s);
      }
      --pending;
    }
    sys.run_epochs(1);
    if (on_epoch) on_epoch(sys);
  }
}

// --------------------------------------------------------------- batteries

std::unique_ptr<TieredSystem> build_scenario(
    const ScenarioSpec& spec, std::string_view policy,
    const std::function<void(SystemBuilder&)>& extra) {
  SystemBuilder b;
  if (spec.configure) spec.configure(b);
  if (spec.capture_provenance) b.provenance(true);
  if (extra) extra(b);
  b.seed(spec.seed).policy(policy);
  BuildResult built = b.build();
  if (!built) {
    throw std::runtime_error(std::string(policy) + ": " + built.error());
  }
  return std::move(built.value());
}

std::vector<FleetWindowRow> fleet_windows(const obs::TimeSeriesStore& store) {
  // Assemble per-window rows from the three gauges' aligned windows (all
  // are observed at the same epoch boundaries).
  std::map<std::uint64_t, FleetWindowRow> rows;
  if (const obs::Series* s = store.find("app.fairness.worst_slowdown")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.worst_slowdown = w.max;
    }
  }
  if (const obs::Series* s = store.find("app.fairness.jain")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.jain_min = w.min;
    }
  }
  if (const obs::Series* s = store.find("runtime.live_workloads")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.live_apps = w.last;
    }
  }
  const double width_s = sim::CpuClock::to_seconds(store.config().window);
  std::vector<FleetWindowRow> out;
  out.reserve(rows.size());
  for (auto& [index, row] : rows) {
    row.time_s = static_cast<double>(index) * width_s;
    out.push_back(row);
  }
  return out;
}

namespace {

/// Build `spec` under `policy` (admission forced on for the ablation's
/// second half), run it to the end and summarise it. Only the
/// admission-off run captures the time-series and provenance exports.
PolicyRunSummary run_once(const ScenarioSpec& spec, const std::string& policy,
                          bool with_admission) {
  const std::unique_ptr<TieredSystem> sys = build_scenario(
      spec, policy, [&spec, with_admission](SystemBuilder& b) {
        if (!with_admission) return;
        mig::AdmissionSpec adm = *spec.admission_compare;
        adm.enabled = true;  // compare mode means "on", always
        b.admission(adm);
      });
  run_staged(*sys, spec.stage(), spec.seconds);

  PolicyRunSummary summary;
  summary.policy = policy;
  summary.jain = sys->app_stats().jain_cumulative();
  summary.cfi = sys->fairness_cfi();
  const MetricsRecorder& m = sys->metrics();
  const std::size_t from = m.epochs().size() / 2;
  for (unsigned w = 0; w < sys->workload_count(); ++w) {
    const double perf = m.mean_performance(w, from);
    summary.apps.emplace_back(sys->workload(w).spec().name,
                              perf > 0 ? 1.0 / perf : 1.0);
    const mig::MigrationStats& t = sys->migrator(w).totals();
    summary.pages_migrated += t.migrated;
    summary.shootdown_ipis += t.shootdown_ipis;
  }
  summary.snapshot = obs::snapshot_registry(sys->obs_registry());

  summary.windows = fleet_windows(sys->obs_timeseries());
  std::vector<double> window_worst;
  window_worst.reserve(summary.windows.size());
  for (const FleetWindowRow& row : summary.windows) {
    summary.worst_slowdown_overall =
        std::max(summary.worst_slowdown_overall, row.worst_slowdown);
    summary.jain_floor = std::min(summary.jain_floor, row.jain_min);
    window_worst.push_back(row.worst_slowdown);
  }
  if (!window_worst.empty()) {
    std::sort(window_worst.begin(), window_worst.end());
    const std::size_t at = std::min(
        window_worst.size() - 1,
        static_cast<std::size_t>(
            std::ceil(0.99 * static_cast<double>(window_worst.size())) - 1));
    summary.worst_slowdown_p99 = window_worst[at];
  }
  if (const mig::AdmissionController* ctl = sys->admission_controller()) {
    summary.admitted = ctl->admitted();
    summary.vetoed = ctl->vetoed();
  }

  if (with_admission) return summary;
  if (spec.capture_timeseries) {
    std::ostringstream rows;
    sys->obs_timeseries().write_jsonl(rows);
    summary.timeseries = rows.str();
  }
  if (spec.capture_provenance) {
    sys->provenance().finalize();
    std::ostringstream d, t;
    sys->provenance().write_decisions_jsonl(d);
    sys->provenance().write_transitions_jsonl(t);
    summary.decisions = d.str();
    summary.transitions = t.str();
  }
  return summary;
}

}  // namespace

std::vector<PolicyRunSummary> run_policy_battery(
    const ScenarioSpec& spec, std::span<const std::string> policies,
    unsigned jobs, exec::BatchStats* stats) {
  if (!spec.stage) {
    throw std::invalid_argument("policy battery needs a stage hook");
  }
  exec::BatchRunner runner(jobs);
  std::vector<std::function<PolicyRunSummary()>> batch;
  batch.reserve(policies.size());
  for (const std::string& policy : policies) {
    // `spec` outlives the (synchronous) batch; each job builds and owns a
    // whole system, so concurrent policy runs never share state. The
    // admission-off run goes first: its artefacts are the summary's regular
    // fields and stay byte-identical whether or not the rerun follows.
    batch.push_back([&spec, policy] {
      PolicyRunSummary summary = run_once(spec, policy, false);
      if (spec.admission_compare) {
        summary.admission = std::make_shared<const PolicyRunSummary>(
            run_once(spec, policy, true));
      }
      return summary;
    });
  }
  auto summaries = exec::values_or_throw(
      runner.run(std::move(batch)), "policy battery \"" + spec.name + "\"");
  if (stats) *stats = runner.stats();
  return summaries;
}

}  // namespace vulcan::runtime
