// runtime::fleet — the fleet-scale co-location scenario.
//
// The paper evaluates a handful of co-located applications; this module
// scales the same harness to O(100) apps with arrival/departure churn, the
// regime where per-app *tail* fairness (who is the worst-off app right
// now?) diverges from the mean-fairness story single-scenario runs tell.
//
// Two pieces:
//
//  * make_fleet(spec) — a seeded, deterministic scenario generator that
//    composes LC/BE/antagonist archetypes (wl/fleet.hpp), diurnal load
//    curves, antagonist bursts and Poisson arrival/departure churn into a
//    StagedWorkload set. Every per-app draw comes from a stream keyed by
//    (seed, app_id), so changing the fleet size or removing one app never
//    perturbs another app's schedule or access stream.
//
//  * fleet_scenario(spec) — the same fleet as a runtime::ScenarioSpec, so
//    run_policy_battery runs it once per policy like any other scenario.
//    Every PolicyRunSummary carries fairness *over time*: per window
//    (obs::TimeSeriesStore) the worst-app slowdown, the windowed Jain
//    floor and the live-app count, plus run-level tail aggregates; the
//    fleet scenario widens those windows and retains all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/timeseries.hpp"
#include "runtime/experiment.hpp"
#include "wl/fleet.hpp"

namespace vulcan::runtime {

/// Knobs of the seeded fleet generator. Defaults give a 64-app static
/// (no-churn) fleet: every app admitted at t=0, none depart.
struct FleetSpec {
  unsigned apps = 64;
  double seconds = 30.0;
  std::uint64_t seed = 42;
  /// Archetype mix: `lc_fraction` of the apps are latency-critical
  /// services, `be_fraction` best-effort batch jobs; the remainder are
  /// bursty bandwidth antagonists.
  double lc_fraction = 0.50;
  double be_fraction = 0.35;
  /// Mean churn events (arrivals + departures) per simulated minute.
  /// 0 disables churn entirely — the historical static-fleet behaviour.
  double churn_per_min = 0.0;
  /// Probability an app is admitted at t=0 when churning (drawn from the
  /// app's own stream; app 0 always is, anchoring the fleet). The rest
  /// arrive through a Poisson process whose rate follows churn_per_min.
  double initial_fraction = 0.5;
  /// Mean exponential lifetime of churned apps; 0 = seconds / 2.
  double mean_lifetime_s = 0.0;
  /// Scales every app's RSS (capacity-pressure sweeps).
  double footprint_scale = 1.0;
};

/// Deterministic fleet scenario: `spec.apps` staged workloads in app-id
/// order (NOT start order — run_staged admits due arrivals whatever the
/// order, and id order keeps the vector resize-stable). Each app's
/// archetype, arrival gap, lifetime and workload stream derive solely
/// from (spec.seed, app_id) via wl::fleet_app_seed.
std::vector<StagedWorkload> make_fleet(const FleetSpec& spec);

/// Tail-fairness window width used by the fleet scenario (wider than the
/// 250 ms epoch so a window aggregates several epochs).
inline constexpr double kFleetWindowSeconds = 2.0;

/// The TimeSeriesStore configuration fleet runs install: windows of
/// kFleetWindowSeconds, retained for the whole run (so the tail table
/// covers every window, not just the most recent few).
obs::TimeSeriesConfig fleet_timeseries_config(double seconds);

/// The fleet as a re-runnable scenario named "fleet": stages
/// make_fleet(spec) and installs fleet_timeseries_config(spec.seconds).
ScenarioSpec fleet_scenario(const FleetSpec& spec);

}  // namespace vulcan::runtime
