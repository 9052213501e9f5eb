// Figure 2: breakdown of single base-page (4 KB) migration cost across
// varying CPU counts.
//
// Paper anchors: total ~50 K cycles at 2 CPUs rising to ~750 K at 32 CPUs;
// preparation share grows 38.3% -> 76.9% (lru_add_drain_all()'s
// on_each_cpu_mask() broadcast); TLB shootdown is the second-largest phase
// at high core counts.
//
// Each row is MigrationMechanism::single_page(): prep plus the page_move()
// composition the migrator charges for a live single-page move.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

int main() {
  bench::header("Fig. 2 — single base-page migration cost breakdown",
                "paper §2.2 Observation #2 (Fig. 2)");

  bench::CsvSink csv("fig2_migration_breakdown",
                     "cpus,prep,unmap,shootdown,copy,remap,total,prep_share");

  const sim::CostModel cost;
  std::printf("%5s %10s %10s %10s %10s %10s %11s %11s\n", "cpus", "prep",
              "unmap", "shootdown", "copy", "remap", "total", "prep-share");
  for (const unsigned cpus : {2u, 4u, 8u, 16u, 24u, 32u}) {
    // The migrating page may be cached by every other core (vanilla
    // process-wide tables give no tighter bound).
    const mig::PhaseBreakdown b =
        mig::MigrationMechanism(cost, {.online_cpus = cpus})
            .single_page(cpus - 1, cpus - 1);
    std::printf("%5u %10llu %10llu %10llu %10llu %10llu %11llu %10.1f%%\n",
                cpus, (unsigned long long)b.prep, (unsigned long long)b.unmap,
                (unsigned long long)b.shootdown, (unsigned long long)b.copy,
                (unsigned long long)b.remap, (unsigned long long)b.total(),
                100.0 * b.prep_share());
    csv.row("%u,%llu,%llu,%llu,%llu,%llu,%llu,%.4f", cpus,
            (unsigned long long)b.prep, (unsigned long long)b.unmap,
            (unsigned long long)b.shootdown, (unsigned long long)b.copy,
            (unsigned long long)b.remap, (unsigned long long)b.total(),
            b.prep_share());
  }

  std::printf(
      "\npaper anchors: 2 CPUs ~50K cycles (prep 38.3%%); 32 CPUs ~750K\n"
      "cycles (prep 76.9%%); prep cost grows ~30x from 2 to 32 CPUs.\n");
  return 0;
}
