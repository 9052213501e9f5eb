#include "check/fuzz.hpp"

#include <exception>
#include <ios>
#include <sstream>

#include "core/fnv.hpp"
#include "mig/admission.hpp"
#include "runtime/fleet.hpp"
#include "sim/rng.hpp"
#include "wl/apps.hpp"

namespace vulcan::check {

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

/// One randomized scenario: 2-3 staggered microbenchmark workloads whose
/// parameters are a pure function of `seed`. Footprints are sized well
/// inside the testbed's capacity so exhaustion never masks real bugs.
runtime::ScenarioSpec make_fuzz_scenario(std::uint64_t campaign_seed,
                                         unsigned index, double seconds,
                                         AuditLevel level) {
  std::uint64_t sm = campaign_seed + index;
  const std::uint64_t scenario_seed = sim::splitmix64(sm);

  runtime::ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(campaign_seed) + "-" +
              std::to_string(index);
  spec.seconds = seconds;
  spec.seed = scenario_seed;
  spec.configure = [level](runtime::SystemBuilder& b) { b.audit(level); };

  // Every third scenario is a churned mini-fleet instead of the staggered
  // microbenchmarks: arrival/departure churn drives the departed-residency
  // audit rule and the policy bookkeeping erase paths the static scenarios
  // never touch. The choice is a pure function of the scenario seed, so
  // campaign digests stay reproducible.
  if (scenario_seed % 3 == 0) {
    spec.name += "-fleet";
    spec.stage = [scenario_seed, seconds]() {
      sim::Rng rng(scenario_seed);
      runtime::FleetSpec fs;
      fs.apps = 6 + static_cast<unsigned>(rng.below(11));  // 6..16 apps
      fs.seconds = seconds;
      fs.seed = scenario_seed;
      fs.churn_per_min = 20.0 + rng.uniform() * 60.0;
      fs.mean_lifetime_s = seconds * (0.3 + 0.4 * rng.uniform());
      // Modest footprints: capacity exhaustion must not mask real bugs.
      fs.footprint_scale = 0.5 + rng.uniform() * 0.5;
      return runtime::make_fleet(fs);
    };
    return spec;
  }

  spec.stage = [scenario_seed, seconds]() {
    sim::Rng rng(scenario_seed);
    const unsigned count = static_cast<unsigned>(rng.between(2, 3));
    std::vector<runtime::StagedWorkload> stages;
    for (unsigned i = 0; i < count; ++i) {
      wl::MicrobenchWorkload::Params p;
      p.rss_pages = rng.between(1024, 4096);
      p.wss_pages = rng.between(p.rss_pages / 4, p.rss_pages / 2);
      p.threads = static_cast<unsigned>(rng.between(2, 8));
      p.write_ratio = 0.05 + 0.35 * rng.uniform();
      p.zipf_theta = 0.5 + 0.45 * rng.uniform();
      p.access_rate_per_thread = 1e6 + 3e6 * rng.uniform();
      // Half the workloads drift, churning promote/demote (and shadow)
      // paths — the regime where shootdown and conservation bugs hide.
      p.drift_pages_per_sec = rng.chance(0.5) ? rng.uniform() * 64.0 : 0.0;
      p.seed = rng();
      runtime::StagedWorkload stage;
      // Later workloads join mid-run so admission churn is exercised too.
      stage.start_s = i == 0 ? 0.0 : rng.uniform() * 0.5 * seconds;
      stage.workload = std::make_unique<wl::MicrobenchWorkload>(p);
      stages.push_back(std::move(stage));
    }
    return stages;
  };
  return spec;
}

void write_double(std::ostream& out, double v) {
  const auto flags = out.flags();
  out << std::hexfloat << v;
  out.flags(flags);
}

/// Failure forensics: replay a failing scenario once per policy with the
/// flight recorder's auto-dump armed, so an audit failure leaves its black
/// box next to the campaign's artefacts. When no policy throws (a pure
/// determinism break), the reference policy's box is dumped on demand so
/// there is always something to open.
void capture_flight_dumps(const runtime::ScenarioSpec& spec,
                          std::span<const std::string> policies,
                          const std::string& dir, FuzzResult& result) {
  for (const std::string& policy : policies) {
    const std::string path =
        dir + "/" + spec.name + "-" + policy + ".flight.json";
    std::unique_ptr<runtime::TieredSystem> built;
    try {
      built = runtime::build_scenario(
          spec, policy,
          [&path](runtime::SystemBuilder& b) { b.flight_dump(path); });
    } catch (const std::exception&) {
      continue;
    }
    runtime::TieredSystem& sys = *built;
    bool threw = false;
    try {
      runtime::run_staged(sys, spec.stage(), spec.seconds);
    } catch (const std::exception&) {
      threw = true;  // the auto dump fired before the unwind
    }
    if (sys.flight().auto_dumped()) {
      result.flight_dumps.push_back(sys.flight().auto_dump_path());
    } else if (!threw && policy == policies.front()) {
      if (sys.dump_flight(path, "fuzz_failure",
                          "scenario failed without an audit throw")) {
        result.flight_dumps.push_back(path);
      }
    }
  }
}

}  // namespace

std::string serialize_battery(
    std::span<const runtime::PolicyRunSummary> summaries) {
  std::ostringstream out;
  for (const runtime::PolicyRunSummary& s : summaries) {
    out << "policy " << s.policy << "\njain ";
    write_double(out, s.jain);
    out << "\ncfi ";
    write_double(out, s.cfi);
    out << "\n";
    for (const auto& [name, slowdown] : s.apps) {
      out << "app " << name << " ";
      write_double(out, slowdown);
      out << "\n";
    }
    for (const auto& [key, value] : s.snapshot.counters) {
      out << "c " << key << " " << value << "\n";
    }
    for (const auto& [key, value] : s.snapshot.gauges) {
      out << "g " << key << " ";
      write_double(out, value);
      out << "\n";
    }
    for (const auto& [key, h] : s.snapshot.histograms) {
      out << "h " << key << " " << h.count << " ";
      write_double(out, h.sum);
      out << " ";
      write_double(out, h.p50);
      out << " ";
      write_double(out, h.p95);
      out << " ";
      write_double(out, h.p99);
      out << "\n";
    }
    // Provenance exports ride along only when the scenario captured them
    // (empty otherwise, leaving provenance-off serializations — and the
    // digests CI pins over them — byte-identical to before the ledger).
    if (!s.decisions.empty()) out << "decisions\n" << s.decisions;
    if (!s.transitions.empty()) out << "transitions\n" << s.transitions;
    // Likewise the admission ablation columns: present only when the
    // scenario set admission_compare, absent (and digest-neutral) otherwise.
    if (s.admission) {
      const runtime::PolicyRunSummary& a = *s.admission;
      out << "admission jain ";
      write_double(out, a.jain);
      out << " cfi ";
      write_double(out, a.cfi);
      out << "\nadmission cost " << a.pages_migrated << " "
          << a.shootdown_ipis << " base " << s.pages_migrated << " "
          << s.shootdown_ipis << " verdicts " << a.admitted << " "
          << a.vetoed << "\n";
      for (const auto& [name, slowdown] : a.apps) {
        out << "admission app " << name << " ";
        write_double(out, slowdown);
        out << "\n";
      }
    }
  }
  return out.str();
}

FuzzResult run_differential_fuzz(const FuzzOptions& options) {
  FuzzResult result;
  const std::vector<std::string> policies = [&] {
    if (!options.policies.empty()) return options.policies;
    const auto all = runtime::all_policy_names();
    return std::vector<std::string>(all.begin(), all.end());
  }();
  const std::vector<unsigned> jobs =
      options.jobs.empty() ? std::vector<unsigned>{1} : options.jobs;

  std::uint64_t digest = core::kFnv1aOffset;
  for (unsigned s = 0; s < options.scenarios; ++s) {
    runtime::ScenarioSpec spec = make_fuzz_scenario(
        options.seed, s, options.seconds, options.level);
    spec.capture_provenance = options.provenance;
    ++result.scenarios;
    const std::size_t failures_before = result.failures.size();

    std::string reference;
    bool have_reference = false;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      std::vector<runtime::PolicyRunSummary> summaries;
      try {
        summaries = runtime::run_policy_battery(spec, policies, jobs[j]);
      } catch (const std::exception& e) {
        // Audit violations surface here: run_policy_battery rethrows the
        // failing policy's check::AuditFailure message.
        result.failures.push_back(
            {spec.name, "jobs=" + std::to_string(jobs[j]) + ": " + e.what()});
        continue;
      }
      result.runs += static_cast<unsigned>(summaries.size());
      const std::string artefact = serialize_battery(summaries);
      if (!have_reference) {
        reference = artefact;
        have_reference = true;
        digest = core::fnv1a(digest, artefact);
        std::uint64_t scenario_audits = 0;
        for (const runtime::PolicyRunSummary& summary : summaries) {
          scenario_audits += summary.snapshot.counter("check.audits");
          if (options.provenance &&
              summary.decisions.find("\"status\":\"pending\"") !=
                  std::string::npos) {
            result.failures.push_back(
                {spec.name, summary.policy +
                                ": ledger export contains unlinked "
                                "(status=pending) decisions"});
          }
          const std::uint64_t violations =
              summary.snapshot.counter("check.violations");
          if (violations != 0) {
            result.failures.push_back(
                {spec.name, summary.policy + ": check.violations = " +
                                std::to_string(violations)});
          }
        }
        result.audits_passed += scenario_audits;
        if (options.level != AuditLevel::kOff && scenario_audits == 0) {
          result.failures.push_back(
              {spec.name, "auditing requested but check.audits == 0"});
        }
      } else if (artefact != reference) {
        result.failures.push_back(
            {spec.name,
             "artefacts diverge between jobs=" + std::to_string(jobs[0]) +
                 " and jobs=" + std::to_string(jobs[j]) +
                 " (determinism break)"});
      }
    }

    // Hot-path variants: the PWC and the translate-batch size are host
    // implementation details — any combination must reproduce the
    // reference artefacts byte-for-byte.
    if (options.vary_hotpath && have_reference) {
      struct HotpathVariant {
        const char* name;
        bool pwc;
        std::uint64_t batch;
      };
      static constexpr HotpathVariant kVariants[] = {
          {"pwc-off", false, 256},
          {"batch-1", true, 1},
          {"batch-7", true, 7},
          {"batch-4096", true, 4096},
      };
      for (const HotpathVariant& v : kVariants) {
        runtime::ScenarioSpec vspec = make_fuzz_scenario(
            options.seed, s, options.seconds, options.level);
        vspec.capture_provenance = options.provenance;
        vspec.configure = [level = options.level, v](runtime::SystemBuilder& b) {
          b.audit(level).pwc(v.pwc).translate_batch(v.batch);
        };
        std::vector<runtime::PolicyRunSummary> summaries;
        try {
          summaries = runtime::run_policy_battery(vspec, policies, jobs[0]);
        } catch (const std::exception& e) {
          result.failures.push_back(
              {spec.name, std::string("hot-path variant ") + v.name + ": " +
                              e.what()});
          continue;
        }
        result.runs += static_cast<unsigned>(summaries.size());
        if (serialize_battery(summaries) != reference) {
          result.failures.push_back(
              {spec.name, std::string("hot-path variant ") + v.name +
                              " diverges from the reference artefacts "
                              "(behavior-neutrality break)"});
        }
      }
    }

    // Admission variants (every third scenario, to bound campaign cost):
    // a wired-but-disabled controller must be perfectly inert, and an
    // enabled one must keep every audit green while finalizing the rows
    // it vetoes (the ledger export may contain no pending decisions).
    if (options.vary_admission && have_reference && s % 3 == 0) {
      {
        runtime::ScenarioSpec vspec = make_fuzz_scenario(
            options.seed, s, options.seconds, options.level);
        vspec.capture_provenance = options.provenance;
        vspec.configure = [level = options.level](runtime::SystemBuilder& b) {
          b.audit(level).admission(mig::AdmissionSpec{});  // enabled = false
        };
        std::vector<runtime::PolicyRunSummary> summaries;
        try {
          summaries = runtime::run_policy_battery(vspec, policies, jobs[0]);
        } catch (const std::exception& e) {
          result.failures.push_back(
              {spec.name,
               std::string("admission-disabled variant: ") + e.what()});
          summaries.clear();
        }
        result.runs += static_cast<unsigned>(summaries.size());
        if (!summaries.empty() &&
            serialize_battery(summaries) != reference) {
          result.failures.push_back(
              {spec.name,
               "admission-disabled variant diverges from the reference "
               "artefacts (null-controller inertness break)"});
        }
      }
      {
        runtime::ScenarioSpec vspec = make_fuzz_scenario(
            options.seed, s, options.seconds, options.level);
        vspec.capture_provenance = true;
        vspec.configure = [level = options.level](runtime::SystemBuilder& b) {
          mig::AdmissionSpec adm;
          adm.enabled = true;
          b.audit(level).admission(adm);
        };
        std::vector<runtime::PolicyRunSummary> summaries;
        try {
          summaries = runtime::run_policy_battery(vspec, policies, jobs[0]);
        } catch (const std::exception& e) {
          result.failures.push_back(
              {spec.name, std::string("admission-on variant: ") + e.what()});
        }
        result.runs += static_cast<unsigned>(summaries.size());
        for (const runtime::PolicyRunSummary& summary : summaries) {
          const std::uint64_t violations =
              summary.snapshot.counter("check.violations");
          if (violations != 0) {
            result.failures.push_back(
                {spec.name, "admission-on variant: " + summary.policy +
                                ": check.violations = " +
                                std::to_string(violations)});
          }
          if (summary.decisions.find("\"status\":\"pending\"") !=
              std::string::npos) {
            result.failures.push_back(
                {spec.name, "admission-on variant: " + summary.policy +
                                ": ledger export contains unlinked "
                                "(status=pending) decisions"});
          }
        }
      }
    }

    if (!options.flight_dir.empty() &&
        result.failures.size() > failures_before) {
      capture_flight_dumps(spec, policies, options.flight_dir, result);
    }
  }

  result.artefact_digest = hex64(digest);
  result.ok = result.failures.empty() && result.scenarios > 0;
  return result;
}

}  // namespace vulcan::check
