// vulcan_whatif — causal what-if profiler for the tiered-memory simulator.
//
// Re-executes a deterministic scenario across a perturbation grid (each
// point scales one mechanism cost) and prints the per-app virtual-speedup
// sensitivity table: Δslowdown, ΔJain and Δmigration-stall per % of cost
// reduction, with the span-timeline subtree that absorbed each delta.
//
//   vulcan_whatif --grid default --seed 42 --out BENCH_whatif.json
//   vulcan_whatif --plan plan.txt --policy tpp --seconds 15 --jobs 4
//
// Grid points are independent simulations, so `--jobs N` fans them out
// across an exec worker pool; results merge in grid order, so identical
// seed + grid produce byte-identical table and JSON *for any job count*
// (asserted by obs_whatif_test, exec_parallel_equivalence_test and the
// battery-smoke CI job).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

void usage() {
  std::printf(
      "vulcan_whatif — causal what-if profiler (exact COZ-style virtual "
      "speedups)\n"
      "\n"
      "  --grid default      one point per mechanism knob at scale 0.9\n"
      "  --plan FILE         perturbation plan: `<knob> <scale> [...]` per "
      "line,\n"
      "                      `#` comments; knobs must come from the "
      "vocabulary below\n"
      "  --scenario NAME     scenario to replay (default: dilemma)\n"
      "  --policy NAME       vulcan|tpp|memtis|nomad|mtm|cascade (default: "
      "vulcan)\n"
      "  --seconds S         simulated seconds per run (default: 20)\n"
      "  --seed N            scenario seed (default: 42)\n"
      "  --jobs N            grid points run concurrently; 0 = hardware\n"
      "                      concurrency (default: 0; output is "
      "byte-identical\n"
      "                      for any value, including 1)\n"
      "  --out FILE          write BENCH_whatif.json here (default: none)\n"
      "\n"
      "Valid knobs: %s\n",
      obs::knob_vocabulary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name, plan_path, out_path;
  std::string scenario_name = "dilemma";
  std::string policy = "vulcan";
  double seconds = 20.0;
  std::uint64_t seed = 42;
  unsigned jobs = 0;  // 0 = hardware concurrency, capped by the grid

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--grid") {
      grid_name = next();
    } else if (flag == "--plan") {
      plan_path = next();
    } else if (flag == "--scenario") {
      scenario_name = next();
    } else if (flag == "--policy") {
      policy = next();
    } else if (flag == "--seconds") {
      seconds = std::atof(next());
    } else if (flag == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--jobs") {
      jobs = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (flag == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  if (grid_name.empty() == plan_path.empty()) {
    std::fprintf(stderr, "exactly one of --grid/--plan is required\n");
    usage();
    return 2;
  }
  if (!grid_name.empty() && grid_name != "default") {
    std::fprintf(stderr, "unknown grid: %s (only \"default\")\n",
                 grid_name.c_str());
    return 2;
  }
  if (scenario_name != "dilemma") {
    std::fprintf(stderr, "unknown scenario: %s (only \"dilemma\")\n",
                 scenario_name.c_str());
    return 2;
  }

  std::vector<obs::Perturbation> grid;
  if (!plan_path.empty()) {
    std::ifstream in(plan_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", plan_path.c_str());
      return 1;
    }
    std::string error;
    grid = obs::parse_plan(in, error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: %s\n", plan_path.c_str(), error.c_str());
      return 1;
    }
    if (grid.empty()) {
      std::fprintf(stderr, "%s: empty plan\n", plan_path.c_str());
      return 1;
    }
  } else {
    grid = obs::WhatIfEngine::default_grid();
  }

  try {
    obs::WhatIfEngine engine(obs::dilemma_scenario(seed, seconds), policy);
    const std::vector<obs::WhatIfResult> results =
        engine.run_grid(grid, jobs);
    const exec::BatchStats& stats = engine.grid_stats();
    std::fprintf(stderr,
                 "[exec] %zu grid points on %u workers: %.0f ms wall "
                 "(%.0f ms serialized, %.2fx)\n",
                 stats.jobs, stats.workers, stats.wall_ms,
                 stats.job_wall_ms_sum, stats.speedup());
    engine.write_sensitivity_table(results, std::cout);
    if (!out_path.empty()) {
      std::ostringstream json;
      engine.write_bench_json(results, json);
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      out << json.str();
      std::fprintf(stderr, "[whatif] wrote %s (%zu grid points)\n",
                   out_path.c_str(), results.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vulcan_whatif: %s\n", e.what());
    return 1;
  }
  return 0;
}
