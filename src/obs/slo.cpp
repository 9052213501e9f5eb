#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

namespace vulcan::obs {

namespace {

std::string app_slowdown_key(std::int32_t app) {
  return "app.slowdown{app=" + std::to_string(app) + "}";
}

const SeriesWindow* find_window(const Series& s, std::uint64_t index) {
  // Window indices are strictly increasing; the ring is short (retention),
  // and every series is observed at the same boundaries, so the matching
  // window is almost always at the same offset from the back.
  for (auto it = s.windows().rbegin(); it != s.windows().rend(); ++it) {
    if (it->index == index) return &*it;
    if (it->index < index) break;
  }
  return nullptr;
}

double aggregate(const std::vector<double>& values, SloAggregate agg) {
  if (values.empty()) return 0.0;
  switch (agg) {
    case SloAggregate::kNewest:
      return values.back();
    case SloAggregate::kMeanWindows: {
      double sum = 0.0;
      for (const double v : values) sum += v;
      return sum / static_cast<double>(values.size());
    }
    case SloAggregate::kMaxWindows:
      return *std::max_element(values.begin(), values.end());
    case SloAggregate::kP99Windows: {
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const auto rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(sorted.size())));
      return sorted[rank == 0 ? 0 : rank - 1];
    }
  }
  return 0.0;
}

/// Per-window values of one series under one signal; empty when the
/// series (or its denominator) has no data yet.
std::vector<double> window_values(const TimeSeriesStore& store,
                                  const std::string& key, SloSignal signal,
                                  const std::string& key2) {
  std::vector<double> out;
  const Series* s = store.find(key);
  if (!s) return out;
  const Series* den = nullptr;
  if (signal == SloSignal::kRatio || signal == SloSignal::kShare) {
    den = store.find(key2);
    if (!den) return out;
  }
  out.reserve(s->windows().size());
  for (const SeriesWindow& w : s->windows()) {
    switch (signal) {
      case SloSignal::kCounterRate:
        out.push_back(window_rate_per_sec(w, store.config()));
        break;
      case SloSignal::kRatio: {
        const SeriesWindow* d = find_window(*den, w.index);
        out.push_back(d && d->sum != 0.0 ? w.sum / d->sum : 0.0);
        break;
      }
      case SloSignal::kShare: {
        const SeriesWindow* d = find_window(*den, w.index);
        const double total = w.sum + (d ? d->sum : 0.0);
        out.push_back(total > 0.0 ? w.sum / total : 0.0);
        break;
      }
      default:  // level semantics (gauges, hist quantiles, slowdowns, jain)
        out.push_back(w.last);
        break;
    }
  }
  return out;
}

std::optional<double> measure(const TimeSeriesStore& store,
                              const SloSpec& spec, std::int32_t app) {
  std::string key = spec.key;
  switch (spec.signal) {
    case SloSignal::kAppSlowdown:
      key = app_slowdown_key(app);
      break;
    case SloSignal::kHistP99:
      key = spec.key + ":p99";
      break;
    case SloSignal::kJain:
      key = "app.fairness.jain";
      break;
    case SloSignal::kWorstSlowdown: {
      // Max over every app's aggregated slowdown series.
      std::optional<double> worst;
      store.for_each([&](const std::string& k, const Series&) {
        if (k.rfind("app.slowdown{app=", 0) != 0) return;
        const auto values = window_values(store, k, spec.signal, spec.key2);
        if (values.empty()) return;
        const double v = aggregate(values, spec.agg);
        if (!worst || v > *worst) worst = v;
      });
      return worst;
    }
    default:
      break;
  }
  const auto values = window_values(store, key, spec.signal, spec.key2);
  if (values.empty()) return std::nullopt;
  return aggregate(values, spec.agg);
}

std::string instance_counter_key(const char* what, const SloSpec& spec,
                                 std::int32_t app) {
  std::string key = std::string("slo.") + what + "{rule=" + spec.name;
  if (app >= 0) key += ",app=" + std::to_string(app);
  return key + "}";
}

}  // namespace

const char* slo_severity_name(SloSeverity s) {
  switch (s) {
    case SloSeverity::kInfo: return "info";
    case SloSeverity::kWarning: return "warning";
    case SloSeverity::kCritical: return "critical";
  }
  return "?";
}

std::vector<SloSpec> default_slo_pack() {
  std::vector<SloSpec> pack;
  // Per-app slowdown ceiling: the "LC victim" detector. The dilemma's
  // latency-critical service settles near 1.5x under the fair policies and
  // well above under the throughput-first baselines, so a 1.3x ceiling
  // sustained for a second deterministically flags the victim.
  SloSpec r;
  r.name = "app-slowdown";
  r.signal = SloSignal::kAppSlowdown;
  r.op = SloOp::kAbove;
  r.threshold = 1.30;
  r.severity = SloSeverity::kWarning;
  pack.push_back(r);

  r = SloSpec{};
  r.name = "worst-slowdown";
  r.signal = SloSignal::kWorstSlowdown;
  r.op = SloOp::kAbove;
  r.threshold = 2.50;
  r.severity = SloSeverity::kCritical;
  pack.push_back(r);

  r = SloSpec{};
  r.name = "jain-floor";
  r.signal = SloSignal::kJain;
  r.op = SloOp::kBelow;
  r.threshold = 0.80;
  r.severity = SloSeverity::kWarning;
  pack.push_back(r);

  r = SloSpec{};
  r.name = "mig-failure-share";
  r.signal = SloSignal::kShare;
  r.key = "mig.pages_failed";
  r.key2 = "mig.pages_migrated";
  r.op = SloOp::kAbove;
  r.threshold = 0.50;
  r.severity = SloSeverity::kWarning;
  pack.push_back(r);

  // Shootdown latency: cycles per operation, p99 over the retained
  // windows (the engine exports shootdown cycles/ops as counters, so the
  // per-window ratio is the mean latency of that window's operations).
  r = SloSpec{};
  r.name = "shootdown-latency-p99";
  r.signal = SloSignal::kRatio;
  r.key = "vm.shootdown.cycles";
  r.key2 = "vm.shootdown.operations";
  r.op = SloOp::kAbove;
  r.threshold = 1e6;
  r.agg = SloAggregate::kP99Windows;
  r.severity = SloSeverity::kWarning;
  pack.push_back(r);

  // Admission-control veto share: a controller rejecting nearly every
  // request has a miscalibrated margin (or the policy's benefit signal
  // collapsed) — migration effectively stops. Inert on admission-off runs:
  // the adm.* series never exist there, so the rule measures nothing.
  r = SloSpec{};
  r.name = "admission-veto-share";
  r.signal = SloSignal::kShare;
  r.key = "adm.vetoed";
  r.key2 = "adm.admitted";
  r.op = SloOp::kAbove;
  r.threshold = 0.90;
  r.severity = SloSeverity::kWarning;
  pack.push_back(r);
  return pack;
}

SloMonitor::SloMonitor(std::vector<SloSpec> specs, sim::Cycles epoch)
    : specs_(std::move(specs)), epoch_(epoch ? epoch : 1) {}

std::uint64_t SloMonitor::sustain_epochs(const SloSpec& spec) const {
  const double epochs =
      spec.sustain_s / sim::CpuClock::to_seconds(epoch_);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(epochs)));
}

void SloMonitor::evaluate_instance(const SloSpec& spec, std::size_t rule,
                                   std::int32_t app, double value,
                                   Registry& reg, TraceRing* trace,
                                   sim::Cycles now, SloEvalResult& result) {
  SloRuleState& st = instances_[InstanceKey{rule, app}];
  st.rule = rule;
  st.app = app;
  st.value = value;
  const bool breach = spec.op == SloOp::kAbove ? value > spec.threshold
                                               : value < spec.threshold;
  const std::uint64_t sustain = sustain_epochs(spec);
  if (breach) {
    ++st.breach_streak;
    st.ok_streak = 0;
    if (!st.violated && st.breach_streak >= sustain) {
      st.violated = true;
      ++st.violations;
      ++violations_total_;
      reg.counter(instance_counter_key("violations", spec, app)).inc();
      if (trace) {
        trace->emit({.time = now,
                     .kind = EventKind::kSloViolation,
                     .workload = app,
                     .a = rule,
                     .b = st.breach_streak,
                     .v = value});
      }
      ++result.fired;
      if (static_cast<std::uint8_t>(spec.severity) >
          static_cast<std::uint8_t>(result.max_fired)) {
        result.max_fired = spec.severity;
      }
    }
  } else {
    ++st.ok_streak;
    st.breach_streak = 0;
    if (st.violated && st.ok_streak >= sustain) {
      st.violated = false;
      ++recoveries_total_;
      reg.counter(instance_counter_key("recoveries", spec, app)).inc();
      if (trace) {
        trace->emit({.time = now,
                     .kind = EventKind::kSloRecovered,
                     .workload = app,
                     .a = rule,
                     .b = st.ok_streak,
                     .v = value});
      }
      ++result.recovered;
    }
  }
}

SloEvalResult SloMonitor::evaluate(const TimeSeriesStore& store,
                                   Registry& reg, TraceRing* trace,
                                   sim::Cycles now) {
  SloEvalResult result;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    if (spec.signal == SloSignal::kAppSlowdown && spec.app < 0) {
      // Expand over every app the store has seen, in ascending app order
      // (the store map sorts "app.slowdown{app=N}" lexicographically; the
      // reordering of N >= 10 does not affect determinism, only event
      // order within one boundary).
      store.for_each([&](const std::string& k, const Series&) {
        if (k.rfind("app.slowdown{app=", 0) != 0) return;
        const std::int32_t app = static_cast<std::int32_t>(
            std::atoi(k.c_str() + std::string("app.slowdown{app=").size()));
        const auto v = measure(store, spec, app);
        if (v) evaluate_instance(spec, i, app, *v, reg, trace, now, result);
      });
      continue;
    }
    const auto v = measure(store, spec, spec.app);
    if (v) evaluate_instance(spec, i, spec.app, *v, reg, trace, now, result);
  }
  reg.gauge("slo.active").set(static_cast<double>(active()));
  return result;
}

std::vector<SloRuleState> SloMonitor::states() const {
  std::vector<SloRuleState> out;
  out.reserve(instances_.size());
  for (const auto& [key, st] : instances_) out.push_back(st);
  return out;
}

std::uint64_t SloMonitor::active() const {
  std::uint64_t n = 0;
  for (const auto& [key, st] : instances_) n += st.violated ? 1 : 0;
  return n;
}

}  // namespace vulcan::obs
