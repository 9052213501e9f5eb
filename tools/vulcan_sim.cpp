// vulcan_sim — command-line experiment driver.
//
// Run any policy against the paper's scenarios or a parameterised
// microbenchmark without writing code:
//
//   vulcan_sim --policy vulcan --scenario paper --seconds 160 --csv out.csv
//   vulcan_sim --policy memtis --scenario dilemma --seconds 40
//   vulcan_sim --policy tpp --rss 16384 --wss 8192 --write-ratio 0.3
//              --rate 3e6 --seconds 20 --profiler pt-scan
//   vulcan_sim --policy vulcan --scenario paper --seconds 20
//              --trace t.jsonl --metrics m.json --perfetto timeline.json
//   vulcan_sim --policies all --scenario dilemma --seconds 20 --jobs 4
//
// Prints a per-workload summary and (optionally) the full per-epoch CSV.
// `--policies` switches to battery mode: one run per named policy, fanned
// out across `--jobs` workers (results merge in roster order, so the
// comparison table is byte-identical for any job count).
// `--trace`, `--metrics`, `--perfetto` and `--folded` accept `-` to write
// to stdout (the human-readable notices then move to stderr).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

struct Options {
  std::string policy = "vulcan";
  std::string policies;  // battery mode: comma-separated roster or "all"
  std::string scenario = "paper";  // paper | dilemma | micro | fleet
  std::string profiler = "hybrid";
  unsigned jobs = 0;  // battery workers; 0 = hardware concurrency
  std::string csv;
  std::string trace_out;    // structured event trace (JSONL)
  std::string metrics_out;  // obs::Registry snapshot (JSON)
  std::string perfetto_out;  // Chrome/Perfetto trace_event JSON
  std::string folded_out;    // folded flamegraph stacks
  std::string bench_json;    // machine-readable benchmark summary
  bool no_spans = false;
  double seconds = 60.0;
  std::uint64_t seed = 42;
  double epoch_ms = 250.0;
  std::uint64_t samples = 10'000;
  // microbenchmark knobs
  std::uint64_t rss = 16'384;
  std::uint64_t wss = 8'192;
  double write_ratio = 0.2;
  double rate = 3e6;
  double drift = 0.0;
  // fleet scenario knobs
  unsigned apps = 64;
  double churn = 0.0;        // churn events per simulated minute; 0 = static
  double lc_frac = 0.50;
  double be_frac = 0.35;
  double lifetime = 0.0;     // mean churned-app lifetime; 0 = seconds / 2
  std::string record_trace;  // capture workload 0's accesses to this file
  std::string replay_trace;  // replace the scenario with this trace file
  std::string audit;  // invariant-audit level; empty = builder default
  std::string slo;    // SLO rule pack; empty = no monitor
  std::string timeseries_out;  // time-series export (battery: file prefix)
  std::string provenance_out;  // provenance-ledger export file prefix
  std::string flight_dump;     // flight-recorder dump path (single run)
  std::string telemetry_bench;  // battery: telemetry-overhead measurement
  bool admission = false;       // benefit/cost veto layer (mig/admission.hpp)
  double admission_margin = -1.0;  // < 0 = AdmissionSpec default
  bool help = false;
};

void usage() {
  std::puts(
      "vulcan_sim — tiered-memory co-location simulator\n"
      "\n"
      "  --policy P       vulcan | tpp | memtis | nomad |\n"
      "                   mtm | cascade                     [vulcan]\n"
      "  --policies LIST  battery mode: run the scenario once per policy\n"
      "                   (comma-separated roster, or `all`) and print a\n"
      "                   comparison table; runs fan out over --jobs\n"
      "  --jobs N         battery runs in flight; 0 = hardware\n"
      "                   concurrency, capped by the roster    [0]\n"
      "  --scenario S     paper | dilemma | micro | fleet  [paper]\n"
      "                   paper:   Memcached@0s, PageRank@50s, Liblinear@110s\n"
      "                   dilemma: LC hot-set service + BE scanner@10s\n"
      "                   micro:   one Zipfian microbenchmark (see knobs)\n"
      "                   fleet:   O(100)-app LC/BE/antagonist mix with\n"
      "                            optional arrival/departure churn; prints\n"
      "                            a per-window tail-fairness table\n"
      "  --profiler K     pebs | pt-scan | hint-fault | hybrid |\n"
      "                   telescope | chrono                [hybrid]\n"
      "  --seconds T      simulated seconds                 [60]\n"
      "  --epoch-ms M     epoch length                      [250]\n"
      "  --samples N      access samples per epoch          [10000]\n"
      "  --seed N         RNG seed                          [42]\n"
      "  --csv FILE       write per-epoch metrics CSV\n"
      "  --trace FILE     write the structured event trace (JSONL)\n"
      "  --metrics FILE   write the metrics-registry snapshot (JSON)\n"
      "  --perfetto FILE  write the span timeline as Chrome/Perfetto\n"
      "                   trace_event JSON (open at ui.perfetto.dev)\n"
      "  --folded FILE    write folded flamegraph stacks (self cycles)\n"
      "  --bench-json F   write a machine-readable benchmark summary\n"
      "                   (also valid in battery mode: per-policy table)\n"
      "  --no-spans       do not record timeline spans\n"
      "  --audit [L]      invariant-audit level: off | basic | full\n"
      "                   (bare --audit means full; a violation prints\n"
      "                   the report and exits 3)            [basic]\n"
      "  --slo [PACK]     install an SLO rule pack (only `default`: per-app\n"
      "                   slowdown, worst slowdown, Jain floor, migration\n"
      "                   failure share, shootdown p99); violations land in\n"
      "                   the trace and the slo.* counters\n"
      "  --timeseries F   write the windowed time-series store (CSV when F\n"
      "                   ends in .csv, JSONL otherwise; in battery mode F\n"
      "                   is a prefix: F.<policy>.jsonl per roster entry)\n"
      "  --provenance P   enable the decision provenance ledger and write\n"
      "                   its exports to P.decisions.jsonl and\n"
      "                   P.transitions.jsonl (battery mode: one pair per\n"
      "                   roster entry, P.<policy>.decisions.jsonl ...);\n"
      "                   query them with vulcan_pagescope\n"
      "  --flight-dump F  arm the flight recorder's auto dump at F (audit\n"
      "                   failure / critical SLO / engine exception); when\n"
      "                   the run ends cleanly, dump on demand instead\n"
      "  --telemetry-bench F  (battery) run the roster with telemetry off\n"
      "                   and again with the default SLO pack, assert the\n"
      "                   fairness artefacts are identical, and write the\n"
      "                   overhead summary JSON to F\n"
      "  --admission on|off  migration admission control (benefit/cost veto\n"
      "                   in front of the migrator). Single run: veto\n"
      "                   uneconomic requests and report the verdict\n"
      "                   totals. Battery/fleet: run every policy with AND\n"
      "                   without admission and print the with/without\n"
      "                   comparison columns                 [off]\n"
      "  --admission-margin M  benefit must exceed M x predicted cost\n"
      "                   (see mig::AdmissionSpec)           [1.0]\n"
      "  (--trace/--metrics/--perfetto/--folded accept '-' for stdout)\n"
      "  micro knobs: --rss P --wss P --write-ratio R --rate A/s/thread\n"
      "               --drift pages/s\n"
      "  fleet knobs: --apps N [64]  --churn EVENTS/MIN [0 = static fleet]\n"
      "               --lc-frac F [0.5]  --be-frac F [0.35]\n"
      "               --lifetime MEAN_S [seconds/2]\n"
      "  traces:      --record-trace FILE  (capture workload 0)\n"
      "               --replay-trace FILE  (run a captured trace)\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") o.help = true;
    else if (flag == "--policy") o.policy = next();
    else if (flag == "--policies") o.policies = next();
    else if (flag == "--jobs")
      o.jobs = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (flag == "--scenario") o.scenario = next();
    else if (flag == "--profiler") o.profiler = next();
    else if (flag == "--csv") o.csv = next();
    else if (flag == "--trace") o.trace_out = next();
    else if (flag == "--metrics") o.metrics_out = next();
    else if (flag == "--perfetto") o.perfetto_out = next();
    else if (flag == "--folded") o.folded_out = next();
    else if (flag == "--bench-json") o.bench_json = next();
    else if (flag == "--no-spans") o.no_spans = true;
    else if (flag == "--seconds") o.seconds = std::atof(next());
    else if (flag == "--epoch-ms") o.epoch_ms = std::atof(next());
    else if (flag == "--samples") o.samples = std::strtoull(next(), nullptr, 10);
    else if (flag == "--seed") o.seed = std::strtoull(next(), nullptr, 10);
    else if (flag == "--rss") o.rss = std::strtoull(next(), nullptr, 10);
    else if (flag == "--wss") o.wss = std::strtoull(next(), nullptr, 10);
    else if (flag == "--write-ratio") o.write_ratio = std::atof(next());
    else if (flag == "--rate") o.rate = std::atof(next());
    else if (flag == "--drift") o.drift = std::atof(next());
    else if (flag == "--apps")
      o.apps = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (flag == "--churn") o.churn = std::atof(next());
    else if (flag == "--lc-frac") o.lc_frac = std::atof(next());
    else if (flag == "--be-frac") o.be_frac = std::atof(next());
    else if (flag == "--lifetime") o.lifetime = std::atof(next());
    else if (flag == "--record-trace") o.record_trace = next();
    else if (flag == "--replay-trace") o.replay_trace = next();
    else if (flag == "--audit") {
      // The level is optional: a bare --audit means "full".
      if (i + 1 < argc && argv[i + 1][0] != '-') o.audit = argv[++i];
      else o.audit = "full";
    }
    else if (flag == "--slo") {
      // The pack name is optional: a bare --slo means "default".
      if (i + 1 < argc && argv[i + 1][0] != '-') o.slo = argv[++i];
      else o.slo = "default";
    }
    else if (flag == "--timeseries") o.timeseries_out = next();
    else if (flag == "--provenance") o.provenance_out = next();
    else if (flag == "--flight-dump") o.flight_dump = next();
    else if (flag == "--telemetry-bench") o.telemetry_bench = next();
    else if (flag == "--admission") {
      const std::string v = next();
      if (v == "on" || v == "1" || v == "true") o.admission = true;
      else if (v == "off" || v == "0" || v == "false") o.admission = false;
      else {
        std::fprintf(stderr, "--admission: expected on|off, got %s\n",
                     v.c_str());
        return false;
      }
    }
    else if (flag == "--admission-margin") o.admission_margin = std::atof(next());
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

std::vector<obs::SloSpec> slo_rules(const Options& o) {
  if (o.slo.empty()) return {};
  if (o.slo == "default") return obs::default_slo_pack();
  std::fprintf(stderr, "unknown SLO pack: %s (only `default`)\n",
               o.slo.c_str());
  std::exit(2);
}

check::AuditLevel audit_level(const Options& o) {
  if (o.audit.empty()) return check::AuditLevel::kBasic;
  const auto parsed = check::parse_audit_level(o.audit);
  if (!parsed) {
    std::fprintf(stderr, "unknown audit level: %s (off | basic | full)\n",
                 o.audit.c_str());
    std::exit(2);
  }
  return *parsed;
}

runtime::ProfilerKind profiler_kind(const std::string& name) {
  if (name == "pebs") return runtime::ProfilerKind::kPebs;
  if (name == "pt-scan") return runtime::ProfilerKind::kPtScan;
  if (name == "hint-fault") return runtime::ProfilerKind::kHintFault;
  if (name == "hybrid") return runtime::ProfilerKind::kHybrid;
  if (name == "telescope") return runtime::ProfilerKind::kTelescope;
  if (name == "chrono") return runtime::ProfilerKind::kChrono;
  std::fprintf(stderr, "unknown profiler: %s\n", name.c_str());
  std::exit(2);
}

mig::AdmissionSpec admission_spec(const Options& o) {
  mig::AdmissionSpec spec;
  spec.enabled = true;
  if (o.admission_margin >= 0.0) spec.margin = o.admission_margin;
  return spec;
}

runtime::FleetSpec fleet_spec(const Options& o) {
  runtime::FleetSpec spec;
  spec.apps = o.apps;
  spec.seconds = o.seconds;
  spec.seed = o.seed;
  spec.lc_fraction = o.lc_frac;
  spec.be_fraction = o.be_frac;
  spec.churn_per_min = o.churn;
  spec.mean_lifetime_s = o.lifetime;
  return spec;
}

/// The scenario both modes run: the named scenario's stages plus the
/// system flags. Bad scenario or flag values exit 2 here, before anything
/// is built, so no worker thread ever resolves a flag.
runtime::ScenarioSpec make_scenario(const Options& o) {
  runtime::ScenarioSpec spec;
  if (o.scenario == "fleet") {
    spec = runtime::fleet_scenario(fleet_spec(o));
  } else if (o.scenario == "paper") {
    spec.stage = [seed = o.seed] { return runtime::paper_colocation(seed); };
  } else if (o.scenario == "dilemma") {
    spec.stage = [seed = o.seed] { return runtime::dilemma_colocation(seed); };
  } else if (o.scenario == "micro") {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = o.rss;
    p.wss_pages = o.wss;
    p.write_ratio = o.write_ratio;
    p.access_rate_per_thread = o.rate;
    p.drift_pages_per_sec = o.drift;
    p.seed = o.seed * 7 + 3;
    spec.stage = [p] {
      std::vector<runtime::StagedWorkload> stages;
      stages.push_back({0.0, std::make_unique<wl::MicrobenchWorkload>(p)});
      return stages;
    };
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", o.scenario.c_str());
    std::exit(2);
  }
  spec.name = o.scenario;
  spec.seconds = o.seconds;
  spec.seed = o.seed;
  spec.configure = [scenario = std::move(spec.configure),
                    epoch_ms = o.epoch_ms, samples = o.samples,
                    profiler = profiler_kind(o.profiler),
                    spans = !o.no_spans, audit = audit_level(o),
                    slo = slo_rules(o)](runtime::SystemBuilder& b) {
    if (scenario) scenario(b);
    b.epoch_ms(epoch_ms)
        .samples_per_epoch(samples)
        .profiler(profiler)
        .spans(spans)
        .audit(audit)
        .slo(slo);
  };
  spec.capture_timeseries = !o.timeseries_out.empty();
  spec.capture_provenance = !o.provenance_out.empty();
  // A battery ablates admission; a single run just enables it.
  if (o.admission) spec.admission_compare = admission_spec(o);
  return spec;
}

double veto_pct(std::uint64_t admitted, std::uint64_t vetoed) {
  const std::uint64_t verdicts = admitted + vetoed;
  return verdicts ? 100.0 * double(vetoed) / double(verdicts) : 0.0;
}

/// A fleet run's tail-fairness windows, one row each.
void print_windows(FILE* out,
                   const std::vector<runtime::FleetWindowRow>& windows) {
  std::fprintf(out, "%8s %10s %10s %6s\n", "t(s)", "worst_sd", "jain_min",
               "live");
  for (const auto& w : windows) {
    std::fprintf(out, "%8.0f %10.3f %10.3f %6.0f\n", w.time_s,
                 w.worst_slowdown, w.jain_min, w.live_apps);
  }
}

/// Open `path` ("-" = stdout) and run `fn` against it. Unwritable paths and
/// failed writes are reported and turn into a nonzero exit.
template <typename Fn>
bool write_output(const std::string& path, Fn&& fn) {
  if (path == "-") {
    fn(std::cout);
    std::cout.flush();
    return std::cout.good();
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  fn(out);
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error while writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Per-app battery report: end-of-run fairness and steady-state slowdowns,
/// plus the off -> on admission ablation when requested.
void print_apps_report(const runtime::ScenarioSpec& spec,
                       const std::vector<runtime::PolicyRunSummary>& runs) {
  std::printf("%-10s %8s %8s", "policy", "jain", "CFI");
  for (const auto& [app, _] : runs.front().apps) {
    std::printf(" %14s", (app + " sd").c_str());
  }
  std::printf("\n");
  for (const auto& s : runs) {
    std::printf("%-10s %8.3f %8.3f", s.policy.c_str(), s.jain, s.cfi);
    for (const auto& [_, slowdown] : s.apps) {
      std::printf(" %14.3f", slowdown);
    }
    std::printf("\n");
  }

  // Admission ablation: per-app slowdowns with the veto layer on, next to
  // the migration cost it saved. The regular table above is the
  // admission-off half and is byte-identical to an ablation-free battery.
  if (!spec.admission_compare) return;
  std::printf("\nadmission ablation (margin=%.2f; off -> on):\n",
              spec.admission_compare->margin);
  std::printf("%-10s %12s", "policy", "jain");
  for (const auto& [app, _] : runs.front().apps) {
    std::printf(" %16s", (app + " sd").c_str());
  }
  std::printf(" %15s %15s %8s\n", "pages", "ipis", "veto%");
  for (const auto& s : runs) {
    if (!s.admission) continue;
    const auto& a = *s.admission;
    std::printf("%-10s %5.3f>%5.3f", s.policy.c_str(), s.jain, a.jain);
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
      const double on_sd =
          i < a.apps.size() ? a.apps[i].second : s.apps[i].second;
      std::printf(" %7.3f>%7.3f", s.apps[i].second, on_sd);
    }
    std::printf(" %7llu>%7llu %7llu>%7llu %7.1f%%\n",
                (unsigned long long)s.pages_migrated,
                (unsigned long long)a.pages_migrated,
                (unsigned long long)s.shootdown_ipis,
                (unsigned long long)a.shootdown_ipis,
                veto_pct(a.admitted, a.vetoed));
  }
}

/// Fleet report: *tail* fairness over time — run-level tail aggregates,
/// the admission ablation when requested, then per 2 s window the
/// worst-app slowdown and the windowed Jain floor.
void print_fleet_report(const runtime::ScenarioSpec& spec,
                        const std::vector<runtime::PolicyRunSummary>& runs) {
  // Run-level tail summary: who is worst off, and how bad does it get?
  std::printf("%-10s %10s %10s %10s %11s\n", "policy", "jain_cum",
              "worst_sd", "p99_sd", "jain_floor");
  for (const auto& r : runs) {
    std::printf("%-10s %10.3f %10.3f %10.3f %11.3f\n", r.policy.c_str(),
                r.jain, r.worst_slowdown_overall, r.worst_slowdown_p99,
                r.jain_floor);
  }

  // Admission ablation: the same tail aggregates with the veto layer on,
  // next to the migration cost it saved (pages copied + shootdown IPIs).
  if (spec.admission_compare) {
    std::printf("\nadmission ablation (margin=%.2f; off -> on):\n",
                spec.admission_compare->margin);
    std::printf("%-10s %10s %10s %11s %13s %13s %9s\n", "policy",
                "worst_sd", "p99_sd", "jain_floor", "pages", "ipis",
                "veto%");
    for (const auto& r : runs) {
      if (!r.admission) continue;
      const auto& a = *r.admission;
      std::printf(
          "%-10s %4.2f>%4.2f %4.2f>%4.2f %5.3f>%5.3f %6llu>%6llu "
          "%6llu>%6llu %8.1f%%\n",
          r.policy.c_str(), r.worst_slowdown_overall,
          a.worst_slowdown_overall, r.worst_slowdown_p99,
          a.worst_slowdown_p99, r.jain_floor, a.jain_floor,
          (unsigned long long)r.pages_migrated,
          (unsigned long long)a.pages_migrated,
          (unsigned long long)r.shootdown_ipis,
          (unsigned long long)a.shootdown_ipis,
          veto_pct(a.admitted, a.vetoed));
    }
  }

  // Per-window detail: the fairness *trajectory* each policy produced.
  for (const auto& r : runs) {
    std::printf("\n%s (%.0f s windows):\n", r.policy.c_str(),
                runtime::kFleetWindowSeconds);
    print_windows(stdout, r.windows);
  }
}

/// Battery bench summary: deterministic fields only (no wall time), so two
/// runs of the same binary are byte-identical at any --jobs count. A fleet
/// reports its tail aggregates (the shape bench/baselines/BENCH_fleet.json
/// pins), every other scenario its per-app slowdowns (BENCH_hotpath.json).
/// The with-admission rerun rides along as a nested object, keeping the
/// admission-off fields identical to a compare-free battery.
void write_battery_json(std::ostream& out, const Options& o, bool fleet,
                        const std::vector<runtime::PolicyRunSummary>& runs) {
  const auto fairness = [&out, fleet](const runtime::PolicyRunSummary& s) {
    if (fleet) {
      out << "\"jain_cumulative\": " << s.jain
          << ", \"worst_slowdown_overall\": " << s.worst_slowdown_overall
          << ", \"worst_slowdown_p99\": " << s.worst_slowdown_p99
          << ", \"jain_floor\": " << s.jain_floor;
      return;
    }
    out << "\"jain\": " << s.jain << ", \"cfi\": " << s.cfi
        << ", \"apps\": [";
    for (std::size_t a = 0; a < s.apps.size(); ++a) {
      out << (a ? ", " : "") << "{\"name\": \"" << s.apps[a].first
          << "\", \"slowdown\": " << s.apps[a].second << "}";
    }
    out << "]";
  };
  out << "{\"scenario\": \"" << o.scenario << "\", \"seed\": " << o.seed
      << ", \"simulated_s\": " << o.seconds;
  if (fleet) {
    out << ", \"apps\": " << o.apps << ", \"churn_per_min\": " << o.churn;
  }
  out << ", \"policies\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& s = runs[i];
    out << (i ? ", " : "") << "{\"name\": \"" << s.policy << "\", ";
    fairness(s);
    if (fleet) out << ", \"windows\": " << s.windows.size();
    if (s.admission) {
      const auto& a = *s.admission;
      out << ", \"admission\": {";
      fairness(a);
      out << ", \"pages_migrated\": " << a.pages_migrated
          << ", \"shootdown_ipis\": " << a.shootdown_ipis
          << ", \"base_pages_migrated\": " << s.pages_migrated
          << ", \"base_shootdown_ipis\": " << s.shootdown_ipis
          << ", \"admitted\": " << a.admitted
          << ", \"vetoed\": " << a.vetoed << "}";
    }
    out << "}";
  }
  out << "]}\n";
}

/// Battery mode: one full simulation per policy in the roster, fanned out
/// across the exec worker pool. Results merge in roster order, so stdout
/// and every export are byte-identical for any --jobs value. Only the
/// report depends on the scenario: a fleet prints tail fairness over time,
/// every other scenario per-app slowdowns.
int run_battery(const Options& o) {
  if (!o.csv.empty() || !o.trace_out.empty() || !o.metrics_out.empty() ||
      !o.perfetto_out.empty() || !o.folded_out.empty() ||
      !o.record_trace.empty() || !o.replay_trace.empty() ||
      !o.flight_dump.empty()) {
    std::fprintf(stderr,
                 "--policies is a comparison mode; per-run artefact flags "
                 "(--csv/--trace/--metrics/--perfetto/--folded/"
                 "--record-trace/--replay-trace/--flight-dump) need a "
                 "single --policy run\n");
    return 2;
  }

  std::vector<std::string> roster;
  if (o.policies == "all") {
    const auto names = runtime::all_policy_names();
    roster.assign(names.begin(), names.end());
  } else {
    std::string token;
    std::istringstream list(o.policies);
    while (std::getline(list, token, ',')) {
      if (!token.empty()) roster.push_back(token);
    }
  }
  if (roster.empty()) {
    std::fprintf(stderr, "--policies: empty roster\n");
    return 2;
  }

  const runtime::ScenarioSpec spec = make_scenario(o);
  // Build every roster entry once, unrun, so a bad policy name or
  // configuration exits 2 like a single run does — before any run starts.
  for (const std::string& policy : roster) {
    try {
      runtime::build_scenario(spec, policy);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid configuration: %s\n", e.what());
      return 2;
    }
  }

  const bool fleet = o.scenario == "fleet";
  const char* ablation = o.admission ? " admission=compare" : "";
  if (fleet) {
    std::printf(
        "scenario=fleet apps=%u churn=%.1f/min lc=%.2f be=%.2f seed=%llu "
        "seconds=%.0f policies=%zu%s\n\n",
        o.apps, o.churn, o.lc_frac, o.be_frac, (unsigned long long)o.seed,
        o.seconds, roster.size(), ablation);
  } else {
    std::printf("scenario=%s seed=%llu seconds=%.0f policies=%zu%s\n\n",
                o.scenario.c_str(), (unsigned long long)o.seed, o.seconds,
                roster.size(), ablation);
  }

  std::vector<runtime::PolicyRunSummary> summaries;
  exec::BatchStats stats;
  try {
    summaries = runtime::run_policy_battery(spec, roster, o.jobs, &stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vulcan_sim: %s\n", e.what());
    // The battery flattens job failures to runtime_error; an audit report
    // is recognisable by its format_report header.
    return std::string(e.what()).find("audit(level=") != std::string::npos
               ? 3
               : 1;
  }
  std::fprintf(stderr,
               "[exec] %zu policy runs on %u workers: %.0f ms wall "
               "(%.0f ms serialized, %.2fx)\n",
               stats.jobs, stats.workers, stats.wall_ms,
               stats.job_wall_ms_sum, stats.speedup());

  if (fleet) {
    print_fleet_report(spec, summaries);
  } else {
    print_apps_report(spec, summaries);
  }

  // Per-policy time-series exports, merged in roster order like the table
  // (each job captured its own store, so the files are byte-identical for
  // any --jobs value).
  if (!o.timeseries_out.empty()) {
    for (const auto& s : summaries) {
      const std::string path = o.timeseries_out + "." + s.policy + ".jsonl";
      if (!write_output(path, [&](std::ostream& out) { out << s.timeseries; })) {
        return 1;
      }
      std::fprintf(stderr, "wrote %s (time-series export)\n", path.c_str());
    }
  }

  // Per-policy provenance exports, merged in roster order (byte-identical
  // for any --jobs value, like everything else the battery emits).
  if (!o.provenance_out.empty()) {
    for (const auto& s : summaries) {
      const std::string d_path =
          o.provenance_out + "." + s.policy + ".decisions.jsonl";
      const std::string t_path =
          o.provenance_out + "." + s.policy + ".transitions.jsonl";
      if (!write_output(d_path,
                        [&](std::ostream& out) { out << s.decisions; }) ||
          !write_output(t_path,
                        [&](std::ostream& out) { out << s.transitions; })) {
        return 1;
      }
      std::fprintf(stderr, "wrote %s + %s (provenance export)\n",
                   d_path.c_str(), t_path.c_str());
    }
  }

  // Telemetry overhead guard: the same roster with the telemetry storey
  // disabled, then with the default SLO pack on top of the always-on
  // store. The fairness artefacts must be identical — telemetry reads the
  // registry, it never steers the system — and the serialized wall-time
  // ratio is the overhead the bench baseline budgets.
  if (!o.telemetry_bench.empty()) {
    runtime::ScenarioSpec off = spec;
    off.capture_timeseries = false;
    off.admission_compare.reset();  // overhead runs, not the ablation
    runtime::ScenarioSpec on = off;
    off.configure = [&spec](runtime::SystemBuilder& b) {
      spec.configure(b);
      b.telemetry(false);
    };
    on.configure = [&spec](runtime::SystemBuilder& b) {
      spec.configure(b);
      b.slo(obs::default_slo_pack());
    };
    exec::BatchStats off_stats, on_stats;
    std::vector<runtime::PolicyRunSummary> off_sum, on_sum;
    try {
      off_sum = runtime::run_policy_battery(off, roster, o.jobs, &off_stats);
      on_sum = runtime::run_policy_battery(on, roster, o.jobs, &on_stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vulcan_sim: telemetry bench: %s\n", e.what());
      return 1;
    }
    bool identical = off_sum.size() == on_sum.size();
    for (std::size_t i = 0; identical && i < off_sum.size(); ++i) {
      identical = off_sum[i].jain == on_sum[i].jain &&
                  off_sum[i].cfi == on_sum[i].cfi &&
                  off_sum[i].apps == on_sum[i].apps;
    }
    const double off_ms = off_stats.job_wall_ms_sum;
    const double on_ms = on_stats.job_wall_ms_sum;
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    const bool ok = write_output(o.telemetry_bench, [&](std::ostream& out) {
      out << "{\"scenario\": \"" << o.scenario << "\", \"policies\": "
          << roster.size() << ", \"telemetry_off_ms\": " << off_ms
          << ", \"telemetry_on_ms\": " << on_ms
          << ", \"overhead\": " << overhead << ", \"identical_fairness\": "
          << (identical ? "true" : "false") << "}\n";
    });
    std::fprintf(stderr,
                 "[telemetry] off %.0f ms, on %.0f ms (%+.1f%%), fairness "
                 "artefacts %s\n",
                 off_ms, on_ms, overhead * 100.0,
                 identical ? "identical" : "DIVERGED");
    if (!ok || !identical) return 1;
  }

  if (!o.bench_json.empty()) {
    const bool ok = write_output(o.bench_json, [&](std::ostream& out) {
      write_battery_json(out, o, fleet, summaries);
    });
    std::fprintf(stderr, "wrote %s (battery benchmark summary)\n",
                 o.bench_json.c_str());
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  if (o.help) {
    usage();
    return 0;
  }
  if (!o.policies.empty()) return run_battery(o);

  // Any artefact routed to stdout moves the human-readable notices to
  // stderr so the machine-readable stream stays clean.
  const bool stdout_taken = o.trace_out == "-" || o.metrics_out == "-" ||
                            o.perfetto_out == "-" || o.folded_out == "-" ||
                            o.csv == "-" || o.bench_json == "-" ||
                            o.timeseries_out == "-" ||
                            o.record_trace == "-";
  FILE* info = stdout_taken ? stderr : stdout;

  const runtime::ScenarioSpec spec = make_scenario(o);
  std::unique_ptr<runtime::TieredSystem> built;
  try {
    built = runtime::build_scenario(
        spec, o.policy, [&o](runtime::SystemBuilder& b) {
          b.flight_dump(o.flight_dump);
          if (o.admission) b.admission(admission_spec(o));
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }
  runtime::TieredSystem& sys = *built;
  std::fprintf(info,
               "policy=%s scenario=%s seed=%llu epoch=%.0fms "
               "budget=%llu pages/epoch\n\n",
               o.policy.c_str(), o.scenario.c_str(),
               (unsigned long long)o.seed, o.epoch_ms,
               (unsigned long long)sys.migration_budget_pages());

  auto stages = spec.stage();
  wl::Trace trace;
  if (!o.replay_trace.empty()) {
    std::ifstream in(o.replay_trace, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", o.replay_trace.c_str());
      return 1;
    }
    wl::WorkloadSpec replay;
    replay.name = "trace:" + o.replay_trace;
    replay.accesses_per_sec_per_thread = o.rate;
    stages.clear();
    stages.push_back({0.0, std::make_unique<wl::ReplayWorkload>(
                               wl::Trace::load(in), replay)});
  } else if (!o.record_trace.empty() && !stages.empty()) {
    auto inner = std::move(stages[0].workload);
    trace = wl::Trace(inner->spec().rss_pages, inner->spec().threads);
    stages[0].workload =
        std::make_unique<wl::RecordingWorkload>(std::move(inner), trace);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  try {
    runtime::run_staged(sys, std::move(stages), o.seconds);
  } catch (const check::AuditFailure& e) {
    std::fprintf(stderr, "vulcan_sim: invariant audit failed\n%s\n",
                 e.what());
    if (sys.flight().auto_dumped()) {
      std::fprintf(stderr, "flight dump written to %s\n",
                   sys.flight().auto_dump_path().c_str());
    }
    return 3;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  bool ok = true;
  if (!o.record_trace.empty()) {
    std::uint64_t bytes = 0;
    ok = write_output(o.record_trace,
                      [&](std::ostream& out) { bytes = trace.save(out); });
    if (ok) {
      std::fprintf(info, "recorded %zu accesses (%llu bytes) to %s\n\n",
                   trace.size(), (unsigned long long)bytes,
                   o.record_trace.c_str());
    }
  }

  const auto& m = sys.metrics();
  std::fprintf(info, "%-14s %8s %8s %12s %12s %10s\n", "workload", "FTHR",
               "perf", "fast pages", "slow pages", "migrated");
  const std::size_t from = m.epochs().size() / 2;
  std::vector<double> mean_progress;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    double migrated = 0;
    for (const auto& e : m.epochs()) {
      if (w < e.workloads.size()) migrated += double(e.workloads[w].migrated);
    }
    mean_progress.push_back(m.mean_performance(w, from));
    std::fprintf(info, "%-14s %8.3f %8.3f %12llu %12llu %10.0f\n",
                 sys.workload(w).spec().name.c_str(), m.mean_fthr(w, from),
                 m.mean_performance(w, from),
                 (unsigned long long)sys.address_space(w).pages_in_tier(
                     mem::kFastTier),
                 (unsigned long long)sys.address_space(w).pages_in_tier(
                     mem::kSlowTier),
                 migrated);
  }
  std::fprintf(info, "\nfairness (FTHR-weighted CFI): %.3f\n",
               sys.fairness_cfi());
  std::fprintf(info, "jain (per-app progress, cumulative): %.3f\n",
               sys.app_stats().jain_cumulative());
  std::fprintf(info, "TLB shootdowns: %llu ops, %llu IPIs\n",
               (unsigned long long)sys.shootdowns().stats().shootdowns,
               (unsigned long long)sys.shootdowns().stats().ipis);
  if (const mig::AdmissionController* adm = sys.admission_controller()) {
    std::fprintf(info,
                 "admission: %llu admitted, %llu vetoed (%.1f%% veto rate)\n",
                 (unsigned long long)adm->admitted(),
                 (unsigned long long)adm->vetoed(),
                 veto_pct(adm->admitted(), adm->vetoed()));
  }
  if (o.scenario == "fleet") {
    std::fprintf(info, "\nfleet tail fairness (%.0f s windows):\n",
                 runtime::kFleetWindowSeconds);
    print_windows(info, runtime::fleet_windows(sys.obs_timeseries()));
  }

  const std::uint64_t dropped = sys.obs_trace().dropped();
  if (!o.csv.empty()) {
    ok &= write_output(o.csv, [&](std::ostream& out) {
      obs::CsvExporter exporter(out);
      m.write(exporter);
    });
    std::fprintf(info, "wrote %s (%zu epochs)\n", o.csv.c_str(),
                 m.epochs().size());
  }
  if (!o.trace_out.empty()) {
    ok &= write_output(o.trace_out, [&](std::ostream& out) {
      sys.obs_trace().write_jsonl(out);
    });
    std::fprintf(info, "wrote %s (%zu events, %llu dropped)\n",
                 o.trace_out.c_str(), sys.obs_trace().size(),
                 (unsigned long long)dropped);
    if (dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace ring dropped %llu events; the serialized "
                   "trace is truncated (oldest events lost)\n",
                   (unsigned long long)dropped);
    }
  }
  if (!o.metrics_out.empty()) {
    ok &= write_output(o.metrics_out, [&](std::ostream& out) {
      sys.obs_registry().write_json(out);
    });
    std::fprintf(info, "wrote %s (%zu instruments)\n", o.metrics_out.c_str(),
                 sys.obs_registry().size());
  }
  if (!o.perfetto_out.empty()) {
    const auto events = sys.obs_trace().events();
    ok &= write_output(o.perfetto_out, [&](std::ostream& out) {
      obs::write_perfetto(events, out, {.dropped = dropped,
                                        .diag = &std::cerr});
    });
    std::fprintf(info, "wrote %s (perfetto timeline)\n",
                 o.perfetto_out.c_str());
  }
  if (!o.folded_out.empty()) {
    const auto events = sys.obs_trace().events();
    ok &= write_output(o.folded_out, [&](std::ostream& out) {
      obs::write_folded(events, out, {.dropped = dropped,
                                      .diag = &std::cerr});
    });
    std::fprintf(info, "wrote %s (folded stacks)\n", o.folded_out.c_str());
  }
  if (!o.timeseries_out.empty()) {
    const bool csv = o.timeseries_out.size() > 4 &&
                     o.timeseries_out.rfind(".csv") ==
                         o.timeseries_out.size() - 4;
    ok &= write_output(o.timeseries_out, [&](std::ostream& out) {
      if (csv) sys.obs_timeseries().write_csv(out);
      else sys.obs_timeseries().write_jsonl(out);
    });
    std::fprintf(info, "wrote %s (%zu series, %llu boundary snapshots)\n",
                 o.timeseries_out.c_str(), sys.obs_timeseries().series_count(),
                 (unsigned long long)sys.obs_timeseries().observations());
  }
  if (!o.provenance_out.empty()) {
    sys.provenance().finalize();
    const std::string d_path = o.provenance_out + ".decisions.jsonl";
    const std::string t_path = o.provenance_out + ".transitions.jsonl";
    ok &= write_output(d_path, [&](std::ostream& out) {
      sys.provenance().write_decisions_jsonl(out);
    });
    ok &= write_output(t_path, [&](std::ostream& out) {
      sys.provenance().write_transitions_jsonl(out);
    });
    std::fprintf(info,
                 "wrote %s + %s (%llu decisions, %llu transitions)\n",
                 d_path.c_str(), t_path.c_str(),
                 (unsigned long long)sys.provenance().total_decisions(),
                 (unsigned long long)sys.provenance().total_transitions());
  }
  if (const obs::SloMonitor* slo = sys.slo_monitor()) {
    std::fprintf(info,
                 "SLO: %llu violations, %llu recoveries, %llu active\n",
                 (unsigned long long)slo->violations_total(),
                 (unsigned long long)slo->recoveries_total(),
                 (unsigned long long)slo->active());
  }
  if (!o.flight_dump.empty() && !sys.flight().auto_dumped()) {
    // Clean landing: nothing triggered the black box, so dump on demand.
    if (sys.dump_flight(o.flight_dump, "on_demand", "run completed")) {
      std::fprintf(info, "wrote %s (flight dump, on demand)\n",
                   o.flight_dump.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.flight_dump.c_str());
      ok = false;
    }
  }
  if (!o.bench_json.empty()) {
    ok &= write_output(o.bench_json, [&](std::ostream& out) {
      out << "{\"wall_time_s\": " << wall_s
          << ", \"simulated_s\": " << o.seconds
          << ", \"cfi\": " << sys.fairness_cfi()
          << ", \"jain\": " << sys.app_stats().jain_cumulative()
          << ", \"apps\": [";
      for (unsigned w = 0; w < sys.workload_count(); ++w) {
        const double perf = mean_progress[w];
        out << (w ? ", " : "") << "{\"name\": \""
            << sys.workload(w).spec().name << "\", \"slowdown\": "
            << (perf > 0 ? 1.0 / perf : 1.0) << "}";
      }
      out << "]}\n";
    });
    std::fprintf(info, "wrote %s (benchmark summary)\n",
                 o.bench_json.c_str());
  }
  return ok ? 0 : 1;
}
