// TimeSeriesStore self-tests: counter-delta vs gauge-level fold semantics,
// derived histogram series, window rollover + retention eviction, EWMA
// determinism, and the no-torn-windows invariant — at every epoch boundary
// of a live run, each counter-like series' cumulative total equals the
// registry's live counter (the store reads the same consistent snapshot the
// invariant auditor audits).
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "sim/clock.hpp"
#include "wl/apps.hpp"

namespace vulcan::obs {
namespace {

TimeSeriesConfig small_config() {
  TimeSeriesConfig cfg;
  cfg.window = 1000;
  cfg.retention = 4;
  cfg.ewma_alpha = 0.5;
  return cfg;
}

TEST(TimeSeries, CounterFoldsDeltasAndTracksTotal) {
  Registry reg;
  TimeSeriesStore store(small_config());

  reg.counter("mig.pages").inc(10);
  store.observe(reg, 0);
  reg.counter("mig.pages").inc(4);
  store.observe(reg, 500);  // same window (index 0)
  reg.counter("mig.pages").inc(6);
  store.observe(reg, 1000);  // next window (index 1)

  const Series* s = store.find("mig.pages");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), SeriesKind::kCounter);
  EXPECT_TRUE(s->counter_like());
  EXPECT_DOUBLE_EQ(s->total(), 20.0);
  ASSERT_EQ(s->windows().size(), 2u);

  // Window 0: the seeding sample (10) plus one delta (4).
  const SeriesWindow& w0 = s->windows()[0];
  EXPECT_EQ(w0.index, 0u);
  EXPECT_EQ(w0.samples, 2u);
  EXPECT_DOUBLE_EQ(w0.sum, 14.0);
  EXPECT_DOUBLE_EQ(w0.min, 4.0);
  EXPECT_DOUBLE_EQ(w0.max, 10.0);
  EXPECT_DOUBLE_EQ(w0.last, 14.0);  // cumulative total at window close

  const SeriesWindow& w1 = s->windows()[1];
  EXPECT_EQ(w1.index, 1u);
  EXPECT_DOUBLE_EQ(w1.sum, 6.0);
  EXPECT_DOUBLE_EQ(w1.last, 20.0);
}

TEST(TimeSeries, GaugeFoldsLevels) {
  Registry reg;
  TimeSeriesStore store(small_config());

  reg.gauge("app.slowdown{app=0}").set(1.5);
  store.observe(reg, 0);
  reg.gauge("app.slowdown{app=0}").set(2.5);
  store.observe(reg, 100);

  const Series* s = store.find("app.slowdown{app=0}");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), SeriesKind::kGauge);
  EXPECT_FALSE(s->counter_like());
  ASSERT_EQ(s->windows().size(), 1u);
  const SeriesWindow& w = s->windows()[0];
  EXPECT_EQ(w.samples, 2u);
  EXPECT_DOUBLE_EQ(w.min, 1.5);
  EXPECT_DOUBLE_EQ(w.max, 2.5);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  EXPECT_DOUBLE_EQ(w.last, 2.5);  // gauge-like: the level, not a total
}

TEST(TimeSeries, HistogramSpawnsCountAndP99Series) {
  Registry reg;
  TimeSeriesStore store(small_config());

  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("vm.lat", bounds);
  h.observe(0.5);
  h.observe(5.0);
  store.observe(reg, 0);
  h.observe(50.0);
  store.observe(reg, 1000);

  const Series* count = store.find("vm.lat:count");
  const Series* p99 = store.find("vm.lat:p99");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(count->kind(), SeriesKind::kHistCount);
  EXPECT_TRUE(count->counter_like());
  EXPECT_DOUBLE_EQ(count->total(), 3.0);
  EXPECT_DOUBLE_EQ(count->windows().back().sum, 1.0);  // delta in window 1
  EXPECT_EQ(p99->kind(), SeriesKind::kHistP99);
  EXPECT_FALSE(p99->counter_like());
  EXPECT_DOUBLE_EQ(p99->windows().back().last, h.quantile(0.99));
}

TEST(TimeSeries, RetentionEvictsOldestWindows) {
  Registry reg;
  TimeSeriesStore store(small_config());  // retention = 4

  for (int i = 0; i < 10; ++i) {
    reg.counter("c").inc(1);
    store.observe(reg, static_cast<sim::Cycles>(i) * 1000);
  }
  const Series* s = store.find("c");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->windows().size(), 4u);
  EXPECT_EQ(s->windows().front().index, 6u);
  EXPECT_EQ(s->windows().back().index, 9u);
  // Eviction loses windows, never the cumulative accounting.
  EXPECT_DOUBLE_EQ(s->total(), 10.0);
  EXPECT_EQ(s->observations(), 10u);
  EXPECT_EQ(store.observations(), 10u);
}

TEST(TimeSeries, EwmaIsDeterministicAndSeededBySample) {
  auto run = [] {
    Registry reg;
    TimeSeriesStore store(small_config());
    for (int i = 1; i <= 5; ++i) {
      reg.gauge("g").set(static_cast<double>(i));
      store.observe(reg, static_cast<sim::Cycles>(i) * 1000);
    }
    std::ostringstream out;
    store.write_jsonl(out);
    return std::make_pair(store.find("g")->ewma(), out.str());
  };
  const auto [ewma_a, export_a] = run();
  const auto [ewma_b, export_b] = run();
  EXPECT_EQ(export_a, export_b);
  EXPECT_DOUBLE_EQ(ewma_a, ewma_b);
  // alpha = 0.5 over 1..5, seeded by the first sample:
  // 1 -> 1.5 -> 2.25 -> 3.125 -> 4.0625
  EXPECT_DOUBLE_EQ(ewma_a, 4.0625);
}

TEST(TimeSeries, DisabledStoreIsInert) {
  TimeSeriesConfig cfg = small_config();
  cfg.enabled = false;
  Registry reg;
  reg.counter("c").inc(1);
  TimeSeriesStore store(cfg);
  store.observe(reg, 0);
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_EQ(store.observations(), 0u);
}

TEST(TimeSeries, CsvAndJsonlAgreeOnRowCount) {
  Registry reg;
  TimeSeriesStore store(small_config());
  reg.counter("a").inc(1);
  reg.gauge("b").set(2.0);
  store.observe(reg, 0);
  store.observe(reg, 1000);

  std::ostringstream jsonl, csv;
  store.write_jsonl(jsonl);
  store.write_csv(csv);
  auto lines = [](const std::string& text) {
    std::size_t n = 0;
    for (const char c : text) n += c == '\n';
    return n;
  };
  // CSV carries one extra header line.
  EXPECT_EQ(lines(csv.str()), lines(jsonl.str()) + 1);
}

// ------------------------------------------------------------ integration

runtime::TieredSystem::Config live_config() {
  runtime::TieredSystem::Config cfg;
  cfg.samples_per_epoch = 2000;
  cfg.seed = 7;
  return cfg;
}

void add_workload(runtime::TieredSystem& sys) {
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 4096;
  p.wss_pages = 2048;
  p.drift_pages_per_sec = 200;
  p.seed = 11;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
}

// The no-torn-windows invariant: the store observes at the same epoch
// boundary the auditor audits, so every counter-like series' cumulative
// total equals the registry's live value at every boundary. check.* is
// excluded — the audit itself runs after the telemetry point and bumps its
// own counters for the *next* boundary to fold.
TEST(TimeSeriesLive, NoTornWindowsAtEveryEpochBoundary) {
  runtime::TieredSystem sys(live_config(), runtime::make_policy("vulcan"));
  add_workload(sys);
  sys.prefault(0);
  for (int e = 0; e < 8; ++e) {
    sys.run_epochs(1);
    const Registry& reg = sys.obs_registry();
    std::size_t counters_checked = 0;
    sys.obs_timeseries().for_each([&](const std::string& key,
                                      const Series& s) {
      if (s.kind() != SeriesKind::kCounter) return;
      if (key.rfind("check.", 0) == 0) return;
      ASSERT_TRUE(reg.has_counter(key)) << key;
      EXPECT_DOUBLE_EQ(s.total(),
                       static_cast<double>(reg.counter_value(key)))
          << key << " torn at epoch " << e + 1;
      ++counters_checked;
    });
    EXPECT_GT(counters_checked, 10u);
  }
  EXPECT_EQ(sys.obs_timeseries().observations(), 8u);
}

TEST(TimeSeriesLive, TelemetryOffDisablesTheStore) {
  runtime::TieredSystem::Config cfg = live_config();
  cfg.telemetry = false;
  runtime::TieredSystem sys(cfg, runtime::make_policy("tpp"));
  add_workload(sys);
  sys.run_epochs(2);
  EXPECT_FALSE(sys.obs_timeseries().enabled());
  EXPECT_EQ(sys.obs_timeseries().series_count(), 0u);
}

// The battery capture rides the same determinism contract as the
// snapshots: per-policy JSONL exports are byte-identical across --jobs.
TEST(TimeSeriesLive, BatteryCaptureIsIdenticalAcrossJobs) {
  runtime::ScenarioSpec spec;
  spec.name = "ts-capture";
  spec.seconds = 1.5;
  spec.seed = 5;
  spec.capture_timeseries = true;
  spec.stage = [] {
    std::vector<runtime::StagedWorkload> stages;
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 2048;
    p.wss_pages = 1024;
    p.seed = 3;
    stages.push_back(
        {0.0, std::make_unique<wl::MicrobenchWorkload>(p)});
    return stages;
  };
  const std::string policies[] = {"vulcan", "tpp"};
  const auto one = runtime::run_policy_battery(spec, policies, 1);
  const auto two = runtime::run_policy_battery(spec, policies, 2);
  ASSERT_EQ(one.size(), 2u);
  ASSERT_EQ(two.size(), 2u);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].timeseries.empty());
    EXPECT_EQ(one[i].timeseries, two[i].timeseries) << one[i].policy;
    // Every run also carries its tail-fairness windows, timed by the
    // store's own window width (the default 250 ms here).
    ASSERT_EQ(one[i].windows.size(), 6u) << one[i].policy;
    EXPECT_EQ(one[i].windows.back().time_s,
              static_cast<double>(one[i].windows.back().window) * 0.25);
    EXPECT_EQ(one[i].worst_slowdown_p99, two[i].worst_slowdown_p99);
  }
}

}  // namespace
}  // namespace vulcan::obs
