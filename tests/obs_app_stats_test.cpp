#include "obs/app_stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/fairness.hpp"
#include "obs/metrics.hpp"
#include "runtime/builder.hpp"
#include "wl/apps.hpp"

namespace vulcan::obs {
namespace {

// Row i is app i; a row's slowdown is 1 / performance.
std::vector<AppEpochRow> two_apps(double slow0, double slow1) {
  AppEpochRow a;
  a.fast_pages = 100;
  a.stall_cycles = 5000;
  a.daemon_cycles = 700;
  a.shootdown_ipis = 12;
  a.performance = 1.0 / slow0;
  AppEpochRow b;
  b.fast_pages = 40;
  b.stall_cycles = 90;
  b.daemon_cycles = 10;
  b.shootdown_ipis = 3;
  b.performance = 1.0 / slow1;
  return {a, b};
}

TEST(AppStats, RecordsEpochSamplesUnderPerAppKeys) {
  Registry reg;
  AppStats stats(&reg);
  ASSERT_TRUE(stats.active());

  const auto samples = two_apps(1.5, 1.0);
  stats.record_epoch(samples);
  stats.record_epoch(samples);

  EXPECT_EQ(reg.counter_value("app.fast_page_epochs{app=0}"), 200u);
  EXPECT_EQ(reg.counter_value("app.migration_stall_cycles{app=0}"), 10000u);
  EXPECT_EQ(reg.counter_value("app.migration_daemon_cycles{app=0}"), 1400u);
  EXPECT_EQ(reg.counter_value("app.shootdown_ipis{app=0}"), 24u);
  EXPECT_EQ(reg.counter_value("app.shootdown_ipis{app=1}"), 6u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.fast_pages{app=1}"), 40.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.slowdown{app=0}"), 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.slowdown_mean{app=0}"), 1.5);
  const Histogram* hist = reg.find_histogram("app.slowdown_hist{app=0}");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_EQ(stats.apps(), 2u);
}

TEST(AppStats, SlowdownIsClampedToAtLeastOne) {
  Registry reg;
  AppStats stats(&reg);
  stats.record_epoch(two_apps(0.25, 1.0));
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.slowdown{app=0}"), 1.0);
  EXPECT_DOUBLE_EQ(stats.jain_epoch(), 1.0);
}

TEST(AppStats, JainMatchesCoreDefinition) {
  Registry reg;
  AppStats stats(&reg);
  stats.record_epoch(two_apps(2.0, 1.25));

  const std::vector<double> progress{1.0 / 2.0, 1.0 / 1.25};
  EXPECT_DOUBLE_EQ(stats.jain_epoch(), core::jain_index(progress));
  EXPECT_DOUBLE_EQ(stats.jain_cumulative(), core::jain_index(progress));
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.fairness.jain"), stats.jain_epoch());
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.fairness.jain_cumulative"),
                   stats.jain_cumulative());
}

// The same reference vectors core_classifier_fairness_test exercises on
// core::jain_index directly: equal shares are perfectly fair, one app
// hoarding everything scores 1/N.
TEST(AppStats, JainReferenceValues) {
  {
    Registry reg;
    AppStats stats(&reg);
    std::vector<AppEpochRow> equal(4);
    for (int i = 0; i < 4; ++i) equal[i].performance = 1.0 / 5.0;
    stats.record_epoch(equal);
    EXPECT_NEAR(stats.jain_epoch(), 1.0, 1e-12);
  }
  {
    Registry reg;
    AppStats stats(&reg);
    // One app at full speed, three (near-)starved: progress ~ {1, 0, 0, 0}.
    std::vector<AppEpochRow> skew(4);
    for (int i = 0; i < 4; ++i) skew[i].performance = i == 0 ? 1.0 : 1e-9;
    stats.record_epoch(skew);
    EXPECT_NEAR(stats.jain_epoch(), 0.25, 1e-6);
  }
}

TEST(AppStats, CumulativeJainAveragesAcrossEpochs) {
  Registry reg;
  AppStats stats(&reg);
  stats.record_epoch(two_apps(1.0, 3.0));
  stats.record_epoch(two_apps(3.0, 1.0));
  // Mean slowdown is 2.0 for both apps, so cumulative progress is equal.
  EXPECT_NEAR(stats.jain_cumulative(), 1.0, 1e-12);
  // ...while the last epoch on its own is skewed.
  EXPECT_LT(stats.jain_epoch(), 1.0);
}

TEST(AppStats, SpanSinkAttributesCyclesPerApp) {
  Registry reg;
  AppStats stats(&reg);
  stats.on_span_closed(0, SpanKind::kMigrationOp, 400);
  stats.on_span_closed(0, SpanKind::kMigrationOp, 100);
  stats.on_span_closed(1, SpanKind::kShootdown, 77);
  stats.on_span_closed(-1, SpanKind::kEpoch, 999);  // system spans: dropped

  EXPECT_EQ(reg.counter_value("app.span.migration_cycles{app=0}"), 500u);
  EXPECT_EQ(reg.counter_value("app.span.shootdown_cycles{app=1}"), 77u);
  EXPECT_EQ(reg.counter_value("app.span.epoch_cycles{app=0}"), 0u);
}

TEST(AppStats, InactiveByDefault) {
  AppStats stats;
  EXPECT_FALSE(stats.active());
  stats.record_epoch(two_apps(2.0, 1.0));  // no crash
  stats.on_span_closed(0, SpanKind::kEpoch, 1);
  EXPECT_EQ(stats.apps(), 0u);
}

// End-to-end: a real co-located run publishes the attribution keys, the
// spans roll up into per-app cycle counters, and the registry gauges agree
// with the AppStats accessors.
TEST(AppStats, SystemRunPublishesAttribution) {
  auto built = runtime::SystemBuilder{}
                   .seed(11)
                   .samples_per_epoch(2000)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(1))
                   .add_workload(wl::make_liblinear(2))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  runtime::TieredSystem& sys = *built.value();
  sys.run_epochs(8);

  const Registry& reg = sys.obs_registry();
  const AppStats& stats = sys.app_stats();
  EXPECT_EQ(stats.apps(), 2u);
  for (int app = 0; app < 2; ++app) {
    const std::string suffix = "{app=" + std::to_string(app) + "}";
    EXPECT_GT(reg.counter_value("app.fast_page_epochs" + suffix), 0u);
    EXPECT_GE(reg.gauge_value("app.slowdown" + suffix), 1.0);
  }
  EXPECT_GT(reg.counter_value("app.span.migration_cycles{app=0}") +
                reg.counter_value("app.span.migration_cycles{app=1}"),
            0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("app.fairness.jain_cumulative"),
                   stats.jain_cumulative());
  EXPECT_GT(stats.jain_cumulative(), 0.0);
  EXPECT_LE(stats.jain_cumulative(), 1.0);
}

}  // namespace
}  // namespace vulcan::obs
