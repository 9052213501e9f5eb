// perfbench: one benchmark run of one workload.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH] [--describe TEXT]
//
// Prints the run's identity, a digest of every policy's simulated results,
// each metric with its unit, and as its last line one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// its spans to --spans. See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fnv.hpp"
#include "harness.hpp"

namespace {

using perfbench::SimResult;
using perfbench::SystemRun;
using perfbench::WorkloadSpec;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 45.0;
  bool trace = false;
  std::string spans;
  std::string describe = "unversioned";
};

void usage() {
  std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH] [--describe TEXT]\n  workloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--describe") {
      args.describe = value;
    } else {
      return std::nullopt;
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return std::nullopt;
  }
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Successful repetitions of every system of the workload. A run fails if
/// it throws (a failed audit included) or if its simulated results differ
/// from the system's first successful run.
class Ledger {
 public:
  explicit Ledger(std::size_t systems) : reference_(systems) {}

  /// Runs `run` as one attempted operation; returns it when it succeeded.
  template <typename Fn>
  std::optional<SystemRun> attempt(std::size_t system, const char* mode,
                                   Fn&& run) {
    ++attempted_;
    try {
      SystemRun r = run();
      if (!reference_[system]) reference_[system] = r.result;
      if (!(r.result == *reference_[system])) {
        throw std::runtime_error("simulated results differ from the first "
                                 "repetition (digest " +
                                 hex(r.result.digest()) + " vs " +
                                 hex(reference_[system]->digest()) + ")");
      }
      return r;
    } catch (const std::exception& e) {
      ++failed_;
      std::cerr << "perfbench: " << mode << " run of system " << system
                << " failed: " << e.what() << "\n";
      return std::nullopt;
    }
  }

  unsigned attempted() const { return attempted_; }
  unsigned failed() const { return failed_; }
  const std::optional<SimResult>& reference(std::size_t s) const {
    return reference_[s];
  }
  bool complete() const {
    return std::all_of(reference_.begin(), reference_.end(),
                       [](const auto& r) { return r.has_value(); });
  }
  std::uint64_t total(std::uint64_t (*field)(const SimResult&)) const {
    std::uint64_t sum = 0;
    for (const auto& r : reference_) sum += r ? field(*r) : 0;
    return sum;
  }

 private:
  std::vector<std::optional<SimResult>> reference_;
  unsigned attempted_ = 0;
  unsigned failed_ = 0;
};

/// Per-epoch minima across repetitions, concatenated over systems in
/// workload order. Empty when a system has no successful repetition.
std::vector<std::uint64_t> minima(
    const std::vector<std::vector<std::vector<std::uint64_t>>>& per_system) {
  std::vector<std::uint64_t> out;
  for (const auto& reps : per_system) {
    if (reps.empty()) return {};
    const std::vector<std::uint64_t> m = perfbench::elementwise_min(reps);
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

std::vector<double> to_ms(const std::vector<std::uint64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const std::uint64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return ms;
}

double sum_ns(const std::vector<std::uint64_t>& ns) {
  return static_cast<double>(
      std::accumulate(ns.begin(), ns.end(), std::uint64_t{0}));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Plausibility of the vulcan run beyond the auditor and repeatability.
bool plausible(const SimResult& r, const perfbench::SystemSpec& spec) {
  const auto expected_epochs =
      static_cast<std::uint64_t>(std::ceil(spec.sim_seconds / 0.25 - 1e-9));
  return r.jain > 0.0 && r.jain <= 1.0 + 1e-9 && r.cfi > 0.0 &&
         r.cfi <= 1.0 + 1e-9 && r.worst_slowdown >= 1.0 && r.samples() > 0 &&
         r.audit_checks > 0 && r.epochs == expected_epochs;
}

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(12);
  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    std::cout << "metric " << m.name << " " << std::setprecision(12)
              << m.value << " " << m.unit << "\n";
  }
  out << "{\"correct\": " << ((correct && finite) ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  const Args& args = *parsed;
  // Keep freed memory in the process, so that every repetition after the
  // first reuses a warm heap instead of paying page faults afresh; their
  // kernel time moves with the host's memory pressure, not with the code.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const WorkloadSpec workload = perfbench::make_workload(args.workload,
                                                         args.seed);
  const std::size_t n_systems = workload.systems.size();
  const unsigned reps = std::max(
      3u, static_cast<unsigned>(args.seconds / workload.nominal_rep_seconds));
  // A traced invocation runs an untraced and a traced repetition in turn,
  // so it spends about the same host time with half as many of each.
  const unsigned traced_reps = std::max(2u, reps / 2);
  // Set-up takes milliseconds at most, so it gets samples of its own: each
  // repetition is preceded by set-up-only rounds, for at least 31 in all.
  const unsigned extra_setups = 30 / reps;
  const unsigned setup_rounds = reps * (extra_setups + 1);

  // Identity of the run.
  {
    std::ostringstream id;
    id << "run {\"workload\": " << json_string(workload.name)
       << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
       << ", \"git_describe\": " << json_string(args.describe)
       << ", \"compiler\": " << json_string(perfbench::compiler_id())
       << ", \"build_type\": " << json_string(perfbench::build_type())
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"sim_seconds\": [";
    for (std::size_t s = 0; s < n_systems; ++s) {
      id << (s ? ", " : "") << workload.systems[s].sim_seconds;
    }
    id << "], \"repetitions\": " << (args.trace ? traced_reps : reps)
       << ", \"setup_rounds\": " << (args.trace ? 0 : setup_rounds) << "}";
    std::cout << id.str() << std::endl;
  }

  Ledger ledger(n_systems);
  std::vector<std::vector<std::vector<std::uint64_t>>> epochs(n_systems);
  std::vector<Metric> metrics;

  if (!args.trace) {
    // Set-up-only rounds are spread over the run, so that the median does
    // not hang on a single moment of the host.
    std::vector<double> setup_s;
    for (unsigned rep = 0; rep < reps; ++rep) {
      for (unsigned round = 0; round < extra_setups; ++round) {
        std::uint64_t ns = 0;
        for (const perfbench::SystemSpec& spec : workload.systems) {
          ns += perfbench::setup_only(spec);
        }
        setup_s.push_back(static_cast<double>(ns) / 1e9);
      }
      std::uint64_t setup_ns = 0;
      bool whole = true;
      for (std::size_t s = 0; s < n_systems; ++s) {
        std::optional<SystemRun> run = ledger.attempt(s, "untraced", [&] {
          return perfbench::run_system(workload.systems[s], nullptr);
        });
        if (!run) {
          whole = false;
          continue;
        }
        setup_ns += run->setup_ns;
        epochs[s].push_back(std::move(run->epoch_ns));
      }
      if (whole) setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
    }

    const std::vector<std::uint64_t> mins = minima(epochs);
    const std::vector<double> mins_ms = to_ms(mins);
    const double samples = static_cast<double>(
        ledger.total([](const SimResult& r) { return r.samples(); }));
    const SimResult vulcan =
        ledger.reference(0).value_or(SimResult{});
    metrics = {
        {"samples_per_s", ratio(samples, sum_ns(mins) / 1e9), "1/s"},
        {"epoch_ms_p50", perfbench::quantile(mins_ms, 0.50), "ms"},
        {"epoch_ms_p99", perfbench::quantile(mins_ms, 0.99), "ms"},
        {"setup_s", perfbench::quantile(setup_s, 0.50), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"sim_jain", vulcan.jain, "index"},
        {"sim_cfi", vulcan.cfi, "index"},
        {"sim_worst_slowdown", vulcan.worst_slowdown, "x"},
    };
  } else {
    perfbench::SpanLog log;
    std::vector<std::vector<std::vector<std::uint64_t>>> traced(n_systems),
        plan(n_systems), audit(n_systems), observe(n_systems);
    std::vector<double> next_access_ns, translate_ns, profiler_ns;
    for (unsigned rep = 0; rep < traced_reps; ++rep) {
      perfbench::LayerTimes primitives;
      bool whole = true;
      for (std::size_t s = 0; s < n_systems; ++s) {
        const perfbench::SystemSpec& spec = workload.systems[s];
        if (std::optional<SystemRun> run = ledger.attempt(s, "untraced", [&] {
              return perfbench::run_system(spec, nullptr);
            })) {
          epochs[s].push_back(std::move(run->epoch_ns));
        }
        const perfbench::TraceSink sink{&log, rep,
                                        static_cast<std::uint32_t>(s)};
        std::optional<SystemRun> run = ledger.attempt(s, "traced", [&] {
          return perfbench::run_system(spec, &sink);
        });
        if (!run) {
          whole = false;
          continue;
        }
        traced[s].push_back(std::move(run->epoch_ns));
        plan[s].push_back(std::move(run->layers.plan_ns));
        audit[s].push_back(std::move(run->layers.audit_ns));
        observe[s].push_back(std::move(run->layers.observe_ns));
        const perfbench::LayerTimes& l = run->layers;
        primitives.next_access_ops += l.next_access_ops;
        primitives.next_access_ns += l.next_access_ns;
        primitives.translate_ops += l.translate_ops;
        primitives.translate_ns += l.translate_ns;
        primitives.profiler_ops += l.profiler_ops;
        primitives.profiler_ns += l.profiler_ns;
      }
      if (!whole) continue;
      next_access_ns.push_back(
          ratio(static_cast<double>(primitives.next_access_ns),
                static_cast<double>(primitives.next_access_ops)));
      translate_ns.push_back(
          ratio(static_cast<double>(primitives.translate_ns),
                static_cast<double>(primitives.translate_ops)));
      profiler_ns.push_back(ratio(static_cast<double>(primitives.profiler_ns),
                                  static_cast<double>(primitives.profiler_ops)));
    }

    const std::vector<std::uint64_t> base = minima(epochs);
    const std::vector<std::uint64_t> epoch = minima(traced);
    const double epoch_total = sum_ns(epoch);
    const double plan_total = sum_ns(minima(plan));
    const double audit_total = sum_ns(minima(audit));
    const double observe_total = sum_ns(minima(observe));
    const auto n_epochs = static_cast<double>(std::max<std::size_t>(
        1, epoch.size()));
    const double traced_p50 = perfbench::quantile(to_ms(epoch), 0.50);
    const double base_p50 = perfbench::quantile(to_ms(base), 0.50);
    const auto least = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    const auto total = [&](std::uint64_t (*field)(const SimResult&)) {
      return static_cast<double>(ledger.total(field));
    };
    const double hits = total([](const SimResult& r) { return r.tlb_hits; });
    const double samples =
        total([](const SimResult& r) { return r.samples(); });
    const double pwc_hits = total([](const SimResult& r) { return r.pwc_hits; });
    const double pwc_lookups = total(
        [](const SimResult& r) { return r.pwc_hits + r.pwc_misses; });
    const double migrated =
        total([](const SimResult& r) { return r.pages_migrated; });
    const double mig_failed =
        total([](const SimResult& r) { return r.pages_failed; });
    metrics = {
        {"runtime.epoch_ms", traced_p50, "ms"},
        {"runtime.other_share",
         1.0 - ratio(plan_total + audit_total + observe_total, epoch_total),
         "share"},
        {"runtime.trace_overhead", ratio(traced_p50, base_p50) - 1.0,
         "ratio"},
        {"wl.next_access_ns", least(next_access_ns), "ns"},
        {"wl.samples", samples, "count"},
        {"vm.translate_ns", least(translate_ns), "ns"},
        {"vm.tlb_hit_ratio", ratio(hits, samples), "ratio"},
        {"vm.pwc_hit_ratio", ratio(pwc_hits, pwc_lookups), "ratio"},
        {"vm.shootdown_ipis",
         total([](const SimResult& r) { return r.shootdown_ipis; }), "count"},
        {"prof.observe_ns", least(profiler_ns), "ns"},
        {"policy.plan_ms", plan_total / 1e6 / n_epochs, "ms"},
        {"policy.plan_share", ratio(plan_total, epoch_total), "share"},
        {"mig.pages_migrated", migrated, "count"},
        {"mig.fail_ratio", ratio(mig_failed, migrated + mig_failed), "ratio"},
        {"check.audit_ms", audit_total / 1e6 / n_epochs, "ms"},
        {"check.audit_share", ratio(audit_total, epoch_total), "share"},
        {"check.checks",
         total([](const SimResult& r) { return r.audit_checks; }), "count"},
        {"obs.observe_ms", observe_total / 1e6 / n_epochs, "ms"},
        {"obs.observe_share", ratio(observe_total, epoch_total), "share"},
        {"obs.trace_drop_ratio",
         ratio(total([](const SimResult& r) { return r.trace_dropped; }),
               total([](const SimResult& r) { return r.trace_emitted; })),
         "ratio"},
    };

    if (!args.spans.empty()) {
      const std::filesystem::path path(args.spans);
      if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
      }
      std::ofstream out(path);
      std::vector<std::string> names;
      for (const perfbench::SystemSpec& spec : workload.systems) {
        names.push_back(spec.policy);
      }
      log.write_jsonl(out, names);
      out.close();
      if (!out) {
        std::cerr << "perfbench: cannot write spans to " << args.spans << "\n";
        return 1;
      }
      std::cout << "spans " << log.spans().size() << " " << args.spans
                << std::endl;
    }
  }

  // Digests of every policy's simulated results (identical in every run of
  // the same seed and code; a change here is a change to the model).
  std::uint64_t all = vulcan::core::kFnv1aOffset;
  for (std::size_t s = 0; s < n_systems; ++s) {
    const std::optional<SimResult>& r = ledger.reference(s);
    const std::uint64_t d = r ? r->digest() : 0;
    all = vulcan::core::fnv1a(all, hex(d));
    std::cout << "digest " << workload.name << " "
              << workload.systems[s].policy << " " << hex(d) << "\n";
  }
  std::cout << "digest " << workload.name << " all " << hex(all) << "\n";

  const bool correct =
      ledger.complete() && ledger.failed() == 0 &&
      plausible(*ledger.reference(0), workload.systems.front());
  print_result(correct, ledger, metrics);
  return 0;
}
