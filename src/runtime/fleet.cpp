#include "runtime/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "sim/rng.hpp"

namespace vulcan::runtime {

namespace {

// Decouples an app's *scheduling* stream (archetype mix, arrival gap,
// lifetime) from its *workload* stream (make_fleet_app uses the raw
// fleet_app_seed), so the two never alias draws.
constexpr std::uint64_t kScheduleSalt = 0x9E3779B97F4A7C15ULL;

}  // namespace

std::vector<StagedWorkload> make_fleet(const FleetSpec& spec) {
  if (spec.apps == 0) return {};
  std::vector<StagedWorkload> stages;
  stages.reserve(spec.apps);

  const double mean_life =
      spec.mean_lifetime_s > 0 ? spec.mean_lifetime_s : spec.seconds * 0.5;
  // churn_per_min counts arrivals + departures; every churned app
  // eventually contributes one of each, so arrivals alone run at half the
  // churn rate.
  const double arrival_gap_s =
      spec.churn_per_min > 0 ? 120.0 / spec.churn_per_min : 0.0;

  // Poisson arrival clock, advanced app by app in id order. Initial-set
  // membership and each arrival gap are drawn from the *arriving* app's
  // own stream, so the schedule for apps 0..k is a pure function of
  // (seed, ids 0..k) — growing the fleet appends apps without moving
  // anyone already scheduled.
  double clock = 0.0;
  for (unsigned id = 0; id < spec.apps; ++id) {
    sim::Rng rng(wl::fleet_app_seed(spec.seed, id) ^ kScheduleSalt);

    const double mix = rng.uniform();
    const wl::FleetArchetype archetype =
        mix < spec.lc_fraction ? wl::FleetArchetype::kLcService
        : mix < spec.lc_fraction + spec.be_fraction
            ? wl::FleetArchetype::kBeBatch
            : wl::FleetArchetype::kAntagonist;

    // App 0 anchors the fleet so a churned run never opens empty.
    const bool initial = arrival_gap_s <= 0.0 || id == 0 ||
                         rng.chance(spec.initial_fraction);
    StagedWorkload stage;
    if (initial) {
      stage.start_s = 0.0;
    } else {
      clock += -arrival_gap_s * std::log(1.0 - rng.uniform());
      stage.start_s = clock;
    }
    if (arrival_gap_s > 0.0) {
      // Exponential lifetime, floored at one second so an app always runs
      // at least a few epochs before retiring.
      const double life =
          std::max(1.0, -mean_life * std::log(1.0 - rng.uniform()));
      stage.end_s = stage.start_s + life;
    }
    stage.workload =
        wl::make_fleet_app(id, archetype, spec.seed, spec.footprint_scale);
    stages.push_back(std::move(stage));
  }
  return stages;
}

obs::TimeSeriesConfig fleet_timeseries_config(double seconds) {
  // Tail-fairness windows: wider than the epoch (several epochs fold into
  // each window) and retained for the whole run.
  obs::TimeSeriesConfig ts;
  ts.window = sim::CpuClock::from_nanos(
      static_cast<std::uint64_t>(kFleetWindowSeconds * 1e9));
  ts.retention =
      static_cast<std::size_t>(seconds / kFleetWindowSeconds) + 8;
  return ts;
}

ScenarioSpec fleet_scenario(const FleetSpec& spec) {
  ScenarioSpec scenario;
  scenario.name = "fleet";
  scenario.seconds = spec.seconds;
  scenario.seed = spec.seed;
  scenario.configure = [seconds = spec.seconds](SystemBuilder& b) {
    b.timeseries(fleet_timeseries_config(seconds));
  };
  scenario.stage = [spec] { return make_fleet(spec); };
  return scenario;
}

}  // namespace vulcan::runtime
