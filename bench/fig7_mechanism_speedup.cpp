// Figure 7: speedup of Vulcan's migration-mechanism optimisations over the
// baseline kernel path, across migration batch sizes.
//
// Paper anchors: up to 3.44x from optimised preparation alone and 4.06x
// with targeted TLB shootdowns added, for 2-page migrations; gains shrink
// as page copying dominates larger batches.
//
// Each variant's cycles are MigrationMechanism::batch().total() in the
// microbench setting: 32 CPUs online, an 8-thread process, and per-thread
// page tables proving ~1 sharer for most pages.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

int main() {
  bench::header("Fig. 7 — migration mechanism optimisation speedups",
                "paper §5.2 'Migration Mechanism' (Fig. 7)");

  bench::CsvSink csv("fig7_mechanism_speedup",
                     "pages,baseline_cycles,prep_opt_cycles,both_cycles,"
                     "speedup_prep,speedup_both");

  constexpr unsigned kProcessRemote = 7;
  constexpr unsigned kSharerRemote = 1;
  const sim::CostModel cost;
  const mig::MigrationMechanism baseline(cost, {.online_cpus = 32});
  const mig::MigrationMechanism prep_opt(
      cost, {.optimized_prep = true, .online_cpus = 32});
  const mig::MigrationMechanism both(
      cost,
      {.optimized_prep = true, .targeted_shootdown = true, .online_cpus = 32});

  std::printf("%7s %14s %14s %14s %11s %11s\n", "pages", "baseline",
              "prep-opt", "prep+tlb", "speedup-1", "speedup-2");
  for (const std::uint64_t pages :
       {2ull, 4ull, 8ull, 16ull, 32ull, 64ull, 128ull, 256ull, 512ull}) {
    const sim::Cycles baseline_cycles =
        baseline.batch(pages, kProcessRemote, kSharerRemote).total();
    const sim::Cycles prep_opt_cycles =
        prep_opt.batch(pages, kProcessRemote, kSharerRemote).total();
    const sim::Cycles both_cycles =
        both.batch(pages, kProcessRemote, kSharerRemote).total();
    const double speedup_prep = static_cast<double>(baseline_cycles) /
                                static_cast<double>(prep_opt_cycles);
    const double speedup_both = static_cast<double>(baseline_cycles) /
                                static_cast<double>(both_cycles);
    std::printf("%7llu %14llu %14llu %14llu %10.2fx %10.2fx\n",
                (unsigned long long)pages,
                (unsigned long long)baseline_cycles,
                (unsigned long long)prep_opt_cycles,
                (unsigned long long)both_cycles, speedup_prep, speedup_both);
    csv.row("%llu,%llu,%llu,%llu,%.3f,%.3f", (unsigned long long)pages,
            (unsigned long long)baseline_cycles,
            (unsigned long long)prep_opt_cycles,
            (unsigned long long)both_cycles, speedup_prep, speedup_both);
  }

  std::printf(
      "\npaper anchors: up to 3.44x (prep opt) and 4.06x (both) at 2 pages,\n"
      "declining toward 1x as page copying dominates large batches.\n");
  return 0;
}
