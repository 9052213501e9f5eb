// Continuous telemetry, storey four, part two: the fairness SLO monitor.
//
// Declarative rules (SloSpec) are evaluated over the time-series store at
// every epoch boundary. A rule names either a raw series key or a derived
// signal (per-app slowdown, worst-app slowdown, rolling Jain, a rate, a
// ratio of two counter deltas, a failure share, a histogram p99), an
// aggregation over the retained windows, a threshold with a direction, a
// sustain-for duration and a severity.
//
// Two-sided hysteresis prevents flapping: a violation fires only after the
// signal breaches for `sustain` consecutive boundaries, and recovers only
// after it holds for `sustain` consecutive boundaries. Firing emits a
// kSloViolation/kSloRecovered trace event plus slo.*{rule,app} registry
// counters.
//
// Determinism note: the monitor is *opt-in* (installed via
// SystemBuilder::slo) precisely because its counters become part of the
// registry snapshot — the differential fuzz oracle pins snapshots of runs
// without rules, so default-run artefacts are unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace vulcan::obs {

enum class SloSeverity : std::uint8_t { kInfo, kWarning, kCritical };
const char* slo_severity_name(SloSeverity s);

/// What a rule measures. `key`/`key2` reference time-series keys (registry
/// keys, plus the derived "<hist>:count"/"<hist>:p99" series).
enum class SloSignal : std::uint8_t {
  kGauge,         ///< level of gauge-like series `key`
  kCounterRate,   ///< newest-window delta of counter-like `key`, per second
  kRatio,         ///< delta(key) / delta(key2) per window; 0 when den == 0
  kShare,         ///< delta(key) / (delta(key) + delta(key2)); 0 when empty
  kHistP99,       ///< level of the derived series `key` + ":p99"
  kAppSlowdown,   ///< app.slowdown{app=N}; app == -1 expands to every app
  kWorstSlowdown, ///< max over apps of app.slowdown{app=*}
  kJain,          ///< the rolling app.fairness.jain gauge
};

enum class SloOp : std::uint8_t { kAbove, kBelow };

/// How per-window values collapse to the measured value. kNewest is the
/// plain "current value"; the window aggregates smooth over the retained
/// ring (kP99Windows is a nearest-rank quantile over the windows).
enum class SloAggregate : std::uint8_t {
  kNewest,
  kMeanWindows,
  kMaxWindows,
  kP99Windows,
};

struct SloSpec {
  std::string name;  ///< stable rule id, used in keys and reports
  SloSignal signal = SloSignal::kGauge;
  std::string key;   ///< series the signal reads (signal-dependent)
  std::string key2;  ///< denominator series for kRatio / kShare
  /// App the rule is scoped to; -1 = system-wide. kAppSlowdown with -1
  /// expands to one rule instance per app seen in the store.
  std::int32_t app = -1;
  SloOp op = SloOp::kAbove;
  double threshold = 0.0;
  SloAggregate agg = SloAggregate::kNewest;
  /// Sustain-for duration (simulated seconds). The monitor rounds up to
  /// whole epochs, minimum one.
  double sustain_s = 1.0;
  SloSeverity severity = SloSeverity::kWarning;
};

/// The paper-motivated default rule pack: per-app slowdown ceiling, a
/// worst-app slowdown tripwire, the rolling-Jain floor, the migration
/// failure share, and the windowed-p99 shootdown latency (cycles per
/// operation; the testbed exports shootdown cycles/ops as counters, so the
/// p99 is taken over the per-window mean-latency series).
std::vector<SloSpec> default_slo_pack();

/// Live state of one expanded rule instance (rule x app).
struct SloRuleState {
  std::size_t rule = 0;       ///< index into specs()
  std::int32_t app = -1;
  bool violated = false;
  std::uint64_t breach_streak = 0;
  std::uint64_t ok_streak = 0;
  double value = 0.0;         ///< last measured value
  std::uint64_t violations = 0;  ///< times this instance fired
};

/// Outcome of one evaluate() pass.
struct SloEvalResult {
  std::uint64_t fired = 0;      ///< instances newly violated this pass
  std::uint64_t recovered = 0;  ///< instances newly recovered this pass
  /// Highest severity among newly fired instances (valid when fired > 0);
  /// the runtime triggers a flight dump at kCritical.
  SloSeverity max_fired = SloSeverity::kInfo;
};

class SloMonitor {
 public:
  /// `epoch` converts each spec's sustain_s into whole epochs.
  SloMonitor(std::vector<SloSpec> specs, sim::Cycles epoch);

  const std::vector<SloSpec>& specs() const { return specs_; }

  /// Evaluate every rule over `store` at simulated time `now`, emitting
  /// trace events into `trace` (may be null) and slo.* counters into
  /// `reg`. Runs at the epoch-boundary telemetry point.
  SloEvalResult evaluate(const TimeSeriesStore& store, Registry& reg,
                         TraceRing* trace, sim::Cycles now);

  /// Expanded rule instances in deterministic (rule, app) order.
  std::vector<SloRuleState> states() const;
  std::uint64_t violations_total() const { return violations_total_; }
  std::uint64_t recoveries_total() const { return recoveries_total_; }
  /// Instances currently in violation.
  std::uint64_t active() const;

 private:
  struct InstanceKey {
    std::size_t rule;
    std::int32_t app;
    bool operator<(const InstanceKey& o) const {
      return rule != o.rule ? rule < o.rule : app < o.app;
    }
  };

  std::uint64_t sustain_epochs(const SloSpec& spec) const;
  void evaluate_instance(const SloSpec& spec, std::size_t rule,
                         std::int32_t app, double value, Registry& reg,
                         TraceRing* trace, sim::Cycles now,
                         SloEvalResult& result);

  std::vector<SloSpec> specs_;
  sim::Cycles epoch_;
  std::map<InstanceKey, SloRuleState> instances_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t recoveries_total_ = 0;
};

}  // namespace vulcan::obs
