// Traced-run fidelity: on every workload, at a short simulated length, the
// traced run (plan_epoch through the forwarding policy, the audit and the
// time-series store called by the benchmark after each epoch) must leave
// every simulated result identical to the untraced run's, and must record
// its spans. Exits 1 on the first workload that diverges.
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

double short_length(const std::string& workload) {
  // Long enough to pass the first arrival: the dilemma's scanner joins at
  // 10 s and the paper timeline's PageRank at 50 s.
  if (workload == "dilemma-zoo") return 15.0;
  if (workload == "paper-staged") return 60.0;
  return 20.0;
}

int failures = 0;

template <typename T>
void expect_equal(const std::string& where, const char* what, const T& plain,
                  const T& traced) {
  if (plain == traced) return;
  ++failures;
  std::cerr << "FAIL " << where << ": " << what << " differs (untraced "
            << plain << ", traced " << traced << ")\n";
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::workload_names()) {
    perfbench::WorkloadSpec workload = perfbench::make_workload(name, 42);
    for (std::size_t s = 0; s < workload.systems.size(); ++s) {
      perfbench::SystemSpec& spec = workload.systems[s];
      spec.sim_seconds = short_length(name);
      const std::string where = name + "/" + spec.policy;

      const perfbench::SimResult plain =
          perfbench::run_system(spec, nullptr).result;
      perfbench::SpanLog log;
      const perfbench::TraceSink sink{&log, 0, static_cast<std::uint32_t>(s)};
      const perfbench::SystemRun traced = perfbench::run_system(spec, &sink);
      const perfbench::SimResult& t = traced.result;

      expect_equal(where, "jain", plain.jain, t.jain);
      expect_equal(where, "cfi", plain.cfi, t.cfi);
      expect_equal(where, "worst slowdown", plain.worst_slowdown,
                   t.worst_slowdown);
      expect_equal(where, "app count", plain.slowdowns.size(),
                   t.slowdowns.size());
      for (std::size_t i = 0;
           i < plain.slowdowns.size() && i < t.slowdowns.size(); ++i) {
        expect_equal(where, "app slowdown", plain.slowdowns[i],
                     t.slowdowns[i]);
      }
      expect_equal(where, "tlb hits", plain.tlb_hits, t.tlb_hits);
      expect_equal(where, "tlb misses", plain.tlb_misses, t.tlb_misses);
      expect_equal(where, "pwc hits", plain.pwc_hits, t.pwc_hits);
      expect_equal(where, "shootdown ipis", plain.shootdown_ipis,
                   t.shootdown_ipis);
      expect_equal(where, "pages migrated", plain.pages_migrated,
                   t.pages_migrated);
      expect_equal(where, "pages failed", plain.pages_failed, t.pages_failed);
      expect_equal(where, "audit checks", plain.audit_checks, t.audit_checks);
      expect_equal(where, "registry digest", plain.registry_digest,
                   t.registry_digest);
      expect_equal(where, "time-series digest", plain.timeseries_digest,
                   t.timeseries_digest);
      expect_equal(where, "result digest", plain.digest(), t.digest());

      // One epoch span per epoch, each with its three timed children.
      std::size_t epoch_spans = 0, children = 0;
      for (const perfbench::SpanLog::Span& span : log.spans()) {
        if (std::string(span.name) == "runtime.epoch") ++epoch_spans;
        if (span.parent != 0) ++children;
      }
      expect_equal(where, "epoch spans", static_cast<std::size_t>(t.epochs),
                   epoch_spans);
      expect_equal(where, "child spans", 3 * epoch_spans, children);
      std::cout << (failures ? "FAIL " : "ok   ") << where << " "
                << t.epochs << " epochs, digest " << std::hex << t.digest()
                << std::dec << "\n";
      if (failures) return 1;
    }
  }
  return 0;
}
