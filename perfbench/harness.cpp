#include "harness.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/fnv.hpp"
#include "prof/hybrid.hpp"
#include "runtime/fleet.hpp"

namespace perfbench {

namespace rt = vulcan::runtime;

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

const char* compiler_id() { return PERFBENCH_COMPILER; }
const char* build_type() { return PERFBENCH_BUILD_TYPE; }

// ------------------------------------------------------------- workloads

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"dilemma-zoo", "fleet-churn",
                                                  "paper-staged"};
  return kNames;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  if (name == "dilemma-zoo") {
    // 6 policies x 168 epochs = 1008 epochs, so the p99 has 10 beyond it.
    for (const std::string& policy : rt::all_policy_names()) {
      SystemSpec s;
      s.policy = policy;
      s.sim_seconds = 42.0;
      s.seed = seed;
      s.stage = [seed] { return rt::dilemma_colocation(seed); };
      w.systems.push_back(std::move(s));
    }
    w.nominal_rep_seconds = 2.5;
  } else if (name == "fleet-churn") {
    // The fleet's shape (arrival and departure schedule, archetype mix and
    // every app's footprint and rates) is part of the workload's definition:
    // make_fleet at seed 42, the CI fleet smoke's. The benchmark seed draws
    // each app's access stream, as it does for the other two workloads. A
    // shape drawn from the benchmark seed moves the live-app count, and with
    // it every metric, by tens of percent from seed to seed. At seed 42 the
    // scenario is make_fleet's own.
    rt::FleetSpec fleet;
    fleet.apps = 64;
    fleet.seconds = 250.0;  // 1000 epochs
    fleet.seed = 42;
    fleet.churn_per_min = 6.0;
    SystemSpec s;
    s.policy = "vulcan";
    s.sim_seconds = fleet.seconds;
    s.seed = seed;
    s.stage = [fleet, seed] {
      std::vector<rt::StagedWorkload> stages = rt::make_fleet(fleet);
      for (std::uint32_t id = 0; id < stages.size(); ++id) {
        stages[id].workload->rng() =
            vulcan::sim::Rng(vulcan::wl::fleet_app_seed(seed, id));
      }
      return stages;
    };
    s.configure = [fleet](rt::SystemBuilder& b) {
      b.timeseries(rt::fleet_timeseries_config(fleet.seconds));
    };
    s.fleet = true;
    w.systems.push_back(std::move(s));
    w.nominal_rep_seconds = 7.5;
  } else if (name == "paper-staged") {
    // Liblinear arrives at 110 s; the run continues to 1000 epochs.
    SystemSpec s;
    s.policy = "vulcan";
    s.sim_seconds = 250.0;
    s.seed = seed;
    s.stage = [seed] { return rt::paper_colocation(seed); };
    w.systems.push_back(std::move(s));
    w.nominal_rep_seconds = 5.0;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

// ------------------------------------------------------------- results

namespace {

std::uint64_t fold(std::uint64_t h, const void* bytes, std::size_t n) {
  return vulcan::core::fnv1a(
      h, std::string_view(static_cast<const char*>(bytes), n));
}

template <typename T>
std::uint64_t fold_value(std::uint64_t h, const T& v) {
  return fold(h, &v, sizeof v);
}

}  // namespace

std::uint64_t SimResult::digest() const {
  std::uint64_t h = vulcan::core::fnv1a(policy);
  for (const double v : {jain, cfi, worst_slowdown}) h = fold_value(h, v);
  for (const double v : slowdowns) h = fold_value(h, v);
  for (const std::uint64_t v :
       {epochs, tlb_hits, tlb_misses, pwc_hits, pwc_misses, shootdown_ipis,
        pages_migrated, pages_failed, trace_emitted, trace_dropped,
        audit_checks, registry_digest, timeseries_digest}) {
    h = fold_value(h, v);
  }
  return h;
}

// ------------------------------------------------------------- spans

std::uint32_t SpanLog::add(Span span) {
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

void SpanLog::write_jsonl(std::ostream& out,
                          const std::vector<std::string>& system_names) const {
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"rep\":" << s.rep << ",\"system\":\""
        << system_names.at(s.system) << "\",\"epoch\":" << s.epoch
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"ops\":" << s.ops << "}\n";
  }
}

// ------------------------------------------------------------- one run

namespace {

/// Forwards every call to the real policy and times plan_epoch. The runtime
/// wires observability into the policy it holds (this one) through the
/// non-virtual SystemPolicy::set_obs, so the scope is handed on to the
/// wrapped policy at the first call after wiring; its counters and spans
/// then land in the registry exactly as without the wrapper.
class TimedPolicy final : public vulcan::policy::SystemPolicy {
 public:
  struct Interval {
    std::uint64_t start_ns = 0, end_ns = 0;
  };

  TimedPolicy(std::unique_ptr<vulcan::policy::SystemPolicy> inner,
              std::vector<Interval>& plans)
      : inner_(std::move(inner)), plans_(plans) {}

  void plan_epoch(std::span<vulcan::policy::WorkloadView> workloads,
                  vulcan::mem::Topology& topo,
                  vulcan::sim::Rng& rng) override {
    wire();
    const std::uint64_t start = thread_cpu_ns();
    inner_->plan_epoch(workloads, topo, rng);
    plans_.push_back({start, thread_cpu_ns()});
  }
  vulcan::mem::TierId placement_tier(
      const vulcan::policy::WorkloadView& view,
      const vulcan::mem::Topology& topo) const override {
    wire();
    return inner_->placement_tier(view, topo);
  }
  vulcan::mig::Migrator::Config migrator_config() const override {
    wire();
    return inner_->migrator_config();
  }
  void on_workload_departed(unsigned index) override {
    wire();
    inner_->on_workload_departed(index);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  void wire() const {
    if (!wired_ && obs().active()) {
      inner_->set_obs(obs());
      wired_ = true;
    }
  }

  std::unique_ptr<vulcan::policy::SystemPolicy> inner_;
  std::vector<Interval>& plans_;
  mutable bool wired_ = false;
};

struct Built {
  std::unique_ptr<rt::TieredSystem> system;
  std::vector<rt::StagedWorkload> stages;
  rt::TieredSystem::Config config;
};

Built build_system(const SystemSpec& spec,
                   std::vector<TimedPolicy::Interval>* plans) {
  Built out;
  out.stages = spec.stage();
  rt::SystemBuilder b;
  if (spec.configure) spec.configure(b);
  b.seed(spec.seed);
  if (plans) {
    // The benchmark calls the auditor and the store itself after each
    // epoch (run_system), so each runs exactly once per epoch.
    b.audit_every(0);
    vulcan::obs::TimeSeriesConfig ts = b.config().timeseries;
    ts.enabled = false;
    b.timeseries(ts);
    b.policy(std::make_unique<TimedPolicy>(
        rt::make_policy(spec.policy, b.config().machine.cores), *plans));
  } else {
    b.policy(std::string_view(spec.policy));
  }
  out.config = b.config();
  rt::BuildResult built = b.build();
  if (!built) throw std::runtime_error(spec.policy + ": " + built.error());
  out.system = std::move(built.value());
  return out;
}

SimResult summarize(rt::TieredSystem& sys, const SystemSpec& spec,
                    const vulcan::obs::TimeSeriesStore& store,
                    std::uint64_t epochs, std::uint64_t audit_checks) {
  SimResult r;
  r.policy = spec.policy;
  r.jain = sys.app_stats().jain_cumulative();
  r.cfi = sys.fairness_cfi();
  const rt::MetricsRecorder& m = sys.metrics();
  const std::size_t from = m.epochs().size() / 2;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    const double perf = m.mean_performance(w, from);
    r.slowdowns.push_back(perf > 0 ? 1.0 / perf : 1.0);
  }
  if (spec.fleet) {
    for (const rt::FleetWindowRow& row : rt::fleet_windows(store)) {
      r.worst_slowdown = std::max(r.worst_slowdown, row.worst_slowdown);
    }
  } else {
    for (const double s : r.slowdowns) {
      r.worst_slowdown = std::max(r.worst_slowdown, s);
    }
  }
  r.epochs = epochs;
  const vulcan::obs::Registry& reg = sys.obs_registry();
  r.tlb_hits = reg.counter_value("vm.tlb.hits");
  r.tlb_misses = reg.counter_value("vm.tlb.misses");
  r.shootdown_ipis = reg.counter_value("vm.shootdown.ipis");
  r.pages_migrated = reg.counter_value("mig.pages_migrated");
  r.pages_failed = reg.counter_value("mig.pages_failed");
  r.pwc_hits = sys.mmu().pwc_stats().hits;
  r.pwc_misses = sys.mmu().pwc_stats().misses;
  r.trace_emitted = sys.obs_trace().total_emitted();
  r.trace_dropped = sys.obs_trace().dropped();
  r.audit_checks = audit_checks;
  std::ostringstream registry;
  reg.write_json(registry);
  r.registry_digest = vulcan::core::fnv1a(registry.str());
  std::ostringstream series;
  store.write_jsonl(series);
  r.timeseries_digest = vulcan::core::fnv1a(series.str());
  return r;
}

/// Time the per-access primitives against the finished run's state:
/// Workload::next_access, Mmu::translate_batch (in the engine's 256-access
/// batches) and a hybrid profiler's observe over the workload's tracker.
/// The system is discarded afterwards, so the state these loops mutate is
/// never read again.
void time_primitives(rt::TieredSystem& sys, const rt::TieredSystem::Config& c,
                     LayerTimes& out, const TraceSink& trace) {
  constexpr std::size_t kOps = 1 << 15;
  constexpr std::size_t kBatch = 256;
  const vulcan::sim::CostModel cost(c.cost_params);
  vulcan::sim::Rng rng(c.seed);
  std::vector<vulcan::vm::Mmu::Access> accesses(kOps);
  std::vector<vulcan::vm::Mmu::Translation> translations;
  const vulcan::vm::Mmu::PlacementFn place = [](vulcan::vm::Vpn) {
    return vulcan::mem::kSlowTier;
  };
  const auto span = [&](const char* name, std::uint64_t start,
                        std::uint64_t end, std::uint64_t ops) {
    trace.log->add({.name = name,
                    .rep = trace.rep,
                    .system = trace.system,
                    .start_ns = start,
                    .end_ns = end,
                    .ops = ops});
  };
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    if (sys.workload_departed(w)) continue;
    vulcan::wl::Workload& work = sys.workload(w);
    vulcan::vm::AddressSpace& as = sys.address_space(w);
    const unsigned threads = work.spec().threads;
    const vulcan::vm::Vpn base = as.base_vpn();

    const std::uint64_t t0 = thread_cpu_ns();
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto thread = static_cast<unsigned>(i % threads);
      const vulcan::wl::WorkloadAccess a = work.next_access(thread);
      // Cores as TieredSystem::add_workload assigns them: round-robin
      // blocks of cores_per_workload per admitted slot.
      accesses[i] = {.vpn = base + a.page,
                     .core = static_cast<vulcan::vm::CoreId>(
                         (w * c.cores_per_workload +
                          thread % c.cores_per_workload) %
                         c.machine.cores),
                     .thread = static_cast<vulcan::vm::ThreadId>(thread),
                     .is_write = a.is_write};
    }
    const std::uint64_t t1 = thread_cpu_ns();
    for (std::size_t i = 0; i < kOps; i += kBatch) {
      sys.mmu().translate_batch(
          as, std::span(accesses).subspan(i, std::min(kBatch, kOps - i)),
          place, translations);
    }
    const std::uint64_t t2 = thread_cpu_ns();
    vulcan::prof::HybridProfiler profiler(sys.tracker(w), cost,
                                          /*pebs_period=*/4,
                                          /*poison_fraction=*/0.05);
    for (const vulcan::vm::Mmu::Access& a : accesses) {
      (void)profiler.observe({.page = a.vpn - base,
                              .thread = a.thread,
                              .is_write = a.is_write},
                             1.0, rng);
    }
    const std::uint64_t t3 = thread_cpu_ns();

    out.next_access_ops += kOps;
    out.next_access_ns += t1 - t0;
    out.translate_ops += kOps;
    out.translate_ns += t2 - t1;
    out.profiler_ops += kOps;
    out.profiler_ns += t3 - t2;
    span("wl.next_access", t0, t1, kOps);
    span("vm.translate_batch", t1, t2, kOps);
    span("prof.observe", t2, t3, kOps);
  }
}

}  // namespace

std::uint64_t setup_only(const SystemSpec& spec) {
  const std::uint64_t start = thread_cpu_ns();
  const Built built = build_system(spec, nullptr);
  return thread_cpu_ns() - start;
}

SystemRun run_system(const SystemSpec& spec, const TraceSink* trace) {
  SystemRun run;
  std::vector<TimedPolicy::Interval> plans;
  const std::uint64_t setup_start = thread_cpu_ns();
  Built built = build_system(spec, trace ? &plans : nullptr);
  run.setup_ns = thread_cpu_ns() - setup_start;
  rt::TieredSystem& sys = *built.system;

  // Traced runs fold the store here instead of inside run_one_epoch, with
  // the configuration build_system switched off in the system.
  vulcan::obs::TimeSeriesConfig store_config = built.config.timeseries;
  store_config.enabled = true;
  vulcan::obs::TimeSeriesStore store(store_config);
  std::uint64_t epochs = 0;
  std::uint64_t audit_checks = 0;
  std::uint64_t last = thread_cpu_ns();
  const auto on_epoch = [&](rt::TieredSystem& s) {
    if (!trace) {
      audit_checks += s.last_audit().checks;
      const std::uint64_t now = thread_cpu_ns();
      run.epoch_ns.push_back(now - last);
      ++epochs;
      last = thread_cpu_ns();
      return;
    }
    // The periodic hook observes at the epoch's start time, before the
    // clock advances; run_staged calls back after the advance.
    const std::uint64_t t0 = thread_cpu_ns();
    store.observe(s.obs_registry(), epochs * built.config.epoch);
    const std::uint64_t t1 = thread_cpu_ns();
    audit_checks += s.run_audit().checks;
    const std::uint64_t t2 = thread_cpu_ns();
    run.epoch_ns.push_back(t2 - last);
    const TimedPolicy::Interval plan =
        plans.empty() ? TimedPolicy::Interval{t0, t0} : plans.back();
    plans.clear();
    run.layers.plan_ns.push_back(plan.end_ns - plan.start_ns);
    run.layers.observe_ns.push_back(t1 - t0);
    run.layers.audit_ns.push_back(t2 - t1);
    SpanLog& log = *trace->log;
    const auto epoch = static_cast<std::uint32_t>(epochs);
    const std::uint32_t parent = log.add({.name = "runtime.epoch",
                                          .rep = trace->rep,
                                          .system = trace->system,
                                          .epoch = epoch,
                                          .start_ns = last,
                                          .end_ns = t2});
    const auto child = [&](const char* name, std::uint64_t a,
                           std::uint64_t b) {
      log.add({.parent = parent,
               .name = name,
               .rep = trace->rep,
               .system = trace->system,
               .epoch = epoch,
               .start_ns = a,
               .end_ns = b});
    };
    child("policy.plan_epoch", plan.start_ns, plan.end_ns);
    child("obs.timeseries_observe", t0, t1);
    child("check.audit", t1, t2);
    ++epochs;
    last = thread_cpu_ns();
  };
  rt::run_staged(sys, std::move(built.stages), spec.sim_seconds, on_epoch);

  run.result = summarize(sys, spec, trace ? store : sys.obs_timeseries(),
                         epochs, audit_checks);
  if (trace) time_primitives(sys, built.config, run.layers, *trace);
  return run;
}

// ------------------------------------------------------------- estimators

std::vector<std::uint64_t> elementwise_min(
    const std::vector<std::vector<std::uint64_t>>& series) {
  if (series.empty()) return {};
  std::vector<std::uint64_t> out = series.front();
  for (const auto& s : series) {
    if (s.size() != out.size()) {
      throw std::logic_error("repetitions ran different epoch counts");
    }
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::min(out[i], s[i]);
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
