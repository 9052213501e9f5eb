// Causal what-if engine — the third storey of vulcan::obs.
//
// The simulator is deterministic in its seed, which makes COZ-style
// "virtual speedups" *exact* instead of statistical: re-run the identical
// scenario with one mechanism cost scaled and every delta in the `app.*`
// metrics is causally attributable to that knob. The engine owns that loop:
//
//   ScenarioSpec     what to run (runtime/experiment.hpp: configure a
//                    SystemBuilder + stage deterministic workloads for N
//                    simulated seconds), under one named policy;
//   Perturbation     one (knob, scale) point — scale 0.9 means "this
//                    mechanism costs 10 % less";
//   WhatIfEngine     runs the baseline once, each perturbation as a
//                    fresh build of the scenario, and reduces the pairs
//                    into per-app sensitivity slopes (Δslowdown, ΔJain,
//                    Δmigration stall per % of cost reduction), with the
//                    span-forest diff naming the timeline subtree that
//                    absorbed the change (obs/diff.hpp).
//
// Results publish into a Registry under `whatif.*{knob=K,app=N}` keys and
// export as a deterministic sensitivity table + BENCH_whatif.json
// (identical seed + grid => byte-identical bytes; CI diffs them against a
// committed baseline).
//
// Note on layering: this header lives with its consumers' vocabulary in
// vulcan::obs but is compiled into the vulcan_runtime library — it drives
// runtime::SystemBuilder, which sits far above the base obs library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/batch.hpp"
#include "obs/diff.hpp"
#include "runtime/builder.hpp"
#include "runtime/experiment.hpp"

namespace vulcan::obs {

/// The perturbation vocabulary. Every knob is a multiplicative scale on a
/// mechanism *cost* (or cadence, for kEpochLength), so "scale 0.9" reads
/// uniformly as "10 % cheaper".
enum class WhatIfKnob : std::uint8_t {
  kShootdownCost = 0,  ///< all TLB-shootdown IPI constants
  kCopyBandwidth,      ///< per-page copy cost; link bandwidth scales 1/s
  kPrepCost,           ///< migration preparation (lru_add_drain_all path)
  kUnmapCost,          ///< PTE unmap / lock constants
  kRemapCost,          ///< PTE remap constants
  kSlowTierLatency,    ///< slow-tier unloaded latency
  kEpochLength,        ///< policy/migration cadence
  kProfilerOverhead,   ///< minor-fault (hint-fault profiling) cost
};

inline constexpr std::size_t kWhatIfKnobCount = 8;

const char* knob_name(WhatIfKnob knob);
std::optional<WhatIfKnob> knob_from_name(std::string_view name);

/// Every valid knob name, space-separated, in enum order ("shootdown copy
/// ..."). For help text and unknown-knob error messages — anything that
/// rejects a knob name should also say what would have been accepted.
std::string knob_vocabulary();

/// One grid point: scale `knob`'s cost by `scale` (< 1 = cheaper).
struct Perturbation {
  WhatIfKnob knob = WhatIfKnob::kShootdownCost;
  double scale = 0.9;

  /// Cost-reduction percentage this point represents (positive when the
  /// mechanism got cheaper).
  double cost_reduction_pct() const { return (1.0 - scale) * 100.0; }
};

/// Scale a builder's staged configuration. The perturbation
/// reaches into Config::cost_params (mig/vm/prof constants), the machine
/// model (mem latency and link bandwidth) and the epoch length.
void apply_perturbation(const Perturbation& p, runtime::SystemBuilder& b);

/// The built-in grid scenario: the paper's two-app cold-page dilemma
/// (runtime::dilemma_colocation). The scanner joins at t=10 s, so the
/// default horizon covers both the solo and the contended phase.
runtime::ScenarioSpec dilemma_scenario(std::uint64_t seed,
                                       double seconds = 20.0);

/// Everything extracted from one executed run.
struct WhatIfRun {
  MetricsSnapshot snapshot;
  std::vector<TraceEvent> events;  ///< retained trace (span diffing)
  double jain = 1.0;               ///< app.fairness.jain_cumulative
  std::map<std::int32_t, double> slowdown;        ///< app.slowdown_mean
  std::map<std::int32_t, std::uint64_t> stall;    ///< migration stall cycles
};

/// One app's sensitivity to one perturbation.
struct WhatIfAppDelta {
  std::int32_t app = 0;
  double slowdown_base = 1.0;
  double slowdown_pert = 1.0;
  /// Δslowdown per % of cost reduction (negative = the app speeds up when
  /// the mechanism gets cheaper — the COZ virtual-speedup slope).
  double dslowdown_per_pct = 0.0;
  /// Δmigration-stall cycles per % of cost reduction.
  double dstall_per_pct = 0.0;
};

struct WhatIfResult {
  Perturbation perturbation;
  std::vector<WhatIfAppDelta> apps;  ///< ascending app id
  double jain_base = 1.0;
  double jain_pert = 1.0;
  double djain_per_pct = 0.0;
  /// Timeline subtree that absorbed the delta ("epoch > app1:migration >
  /// phase_shootdown"); empty when nothing moved or spans were off.
  std::vector<std::string> attribution;
};

class WhatIfEngine {
 public:
  /// `scenario` must be deterministic (configure pure, stage rebuilding
  /// its workloads from the seed), so every execution replays the same run.
  explicit WhatIfEngine(runtime::ScenarioSpec scenario,
                        std::string policy = "vulcan");

  /// The unperturbed run (executed lazily, once).
  const WhatIfRun& baseline();

  /// Execute one perturbed run and reduce it against the baseline.
  WhatIfResult run(const Perturbation& p);

  /// Execute a whole grid and reduce every point against the (shared)
  /// baseline. `jobs` grid points run concurrently on an exec::BatchRunner
  /// (0 = hardware concurrency, capped by the grid size); every point is a
  /// self-contained simulation and results are merged in grid order, so
  /// the output is byte-identical for any job count, including 1.
  std::vector<WhatIfResult> run_grid(std::span<const Perturbation> grid,
                                     unsigned jobs = 1);

  /// Real-time accounting of the last run_grid (workers, wall-clock,
  /// speedup). Never part of the deterministic artefacts.
  const exec::BatchStats& grid_stats() const { return grid_stats_; }

  /// One point per mechanism knob at scale 0.9 (10 % cost reduction) —
  /// the COZ-style default sweep.
  static std::vector<Perturbation> default_grid();

  /// Publish sensitivity slopes into `registry` as
  /// `whatif.dslowdown{knob=K,app=N}`, `whatif.dstall{knob=K,app=N}` and
  /// `whatif.djain{knob=K}` gauges (mean slope when a knob has several
  /// grid points), plus a `whatif.runs` counter.
  void publish(std::span<const WhatIfResult> results, Registry& registry);

  /// Per app, the mechanism knob whose cost reduction buys the most
  /// slowdown relief (most negative dslowdown_per_pct). Only management
  /// *mechanism* costs are ranked: kEpochLength (a cadence) and
  /// kSlowTierLatency (a device property, no software fix) are excluded.
  /// Ties break toward the lower knob value; ascending app id.
  static std::vector<std::pair<std::int32_t, WhatIfKnob>> rank_top_knobs(
      std::span<const WhatIfResult> results);

  /// Fixed-width sensitivity table naming the most fairness-critical
  /// mechanism per app. Deterministic bytes.
  void write_sensitivity_table(std::span<const WhatIfResult> results,
                               std::ostream& out);

  /// Machine-readable summary (BENCH_whatif.json shape): scenario
  /// metadata, baseline, every whatif.* key and the per-app top knob.
  /// Deterministic bytes.
  void write_bench_json(std::span<const WhatIfResult> results,
                        std::ostream& out);

  const runtime::ScenarioSpec& scenario() const { return scenario_; }

 private:
  WhatIfRun execute(const Perturbation* p) const;
  WhatIfResult reduce_against_baseline(const Perturbation& p,
                                       const WhatIfRun& pert);

  runtime::ScenarioSpec scenario_;
  std::string policy_;
  std::optional<WhatIfRun> baseline_;
  exec::BatchStats grid_stats_;
};

/// Parse a plan file: one perturbation set per non-comment line,
///   <knob> <scale> [<scale> ...]
/// '#' starts a comment. Unknown knobs or unparseable scales are reported
/// in `error` and yield an empty grid.
std::vector<Perturbation> parse_plan(std::istream& in, std::string& error);

}  // namespace vulcan::obs
