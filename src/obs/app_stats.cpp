#include "obs/app_stats.hpp"

#include <algorithm>
#include <string>

// Header-only on purpose: obs sits below core in the library graph, and
// jain_index is inline so sharing the definition costs no link dependency.
#include "core/fairness.hpp"

namespace vulcan::obs {

namespace {

std::string key(const char* name, std::int32_t app) {
  return "app." + std::string(name) + "{app=" + std::to_string(app) + "}";
}

// Slowdown distribution: 1.0 = no slowdown; the tail buckets capture the
// unfair >2x outliers the paper's figures highlight.
constexpr double kSlowdownBounds[] = {1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0};

}  // namespace

AppStats::PerApp& AppStats::app(std::int32_t index) {
  const auto i = static_cast<std::size_t>(index);
  if (i >= per_app_.size()) per_app_.resize(i + 1);
  PerApp& pa = per_app_[i];
  if (!pa.fast_pages) {
    pa.fast_page_epochs = &registry_->counter(key("fast_page_epochs", index));
    pa.stall_cycles = &registry_->counter(key("migration_stall_cycles", index));
    pa.daemon_cycles =
        &registry_->counter(key("migration_daemon_cycles", index));
    pa.shootdown_ipis = &registry_->counter(key("shootdown_ipis", index));
    pa.fast_pages = &registry_->gauge(key("fast_pages", index));
    pa.slowdown = &registry_->gauge(key("slowdown", index));
    pa.slowdown_mean = &registry_->gauge(key("slowdown_mean", index));
    pa.slowdown_hist =
        &registry_->histogram(key("slowdown_hist", index), kSlowdownBounds);
    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
      pa.span_cycles[k] = &registry_->counter(
          key((std::string("span.") +
               span_kind_name(static_cast<SpanKind>(k)) + "_cycles")
                  .c_str(),
              index));
    }
  }
  return pa;
}

void AppStats::record_epoch(std::span<const AppEpochRow> rows) {
  if (!registry_) return;

  std::vector<double> epoch_slowdowns;
  double worst = 1.0;
  std::int32_t worst_app = -1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AppEpochRow& r = rows[i];
    if (!r.live()) continue;
    const auto index = static_cast<std::int32_t>(i);
    PerApp& pa = app(index);
    pa.fast_page_epochs->inc(r.fast_pages);
    pa.stall_cycles->inc(r.stall_cycles);
    pa.daemon_cycles->inc(r.daemon_cycles);
    pa.shootdown_ipis->inc(r.shootdown_ipis);
    pa.fast_pages->set(static_cast<double>(r.fast_pages));
    const double slowdown = std::max(1.0, 1.0 / r.performance);
    pa.slowdown->set(slowdown);
    pa.slowdown_hist->observe(slowdown);
    // Incremental cumulative-Jain bookkeeping: retire this app's previous
    // mean-progress contribution, fold the sample, then add the new one.
    // An app's mean progress is 1 / mean slowdown = epochs / slowdown_sum.
    if (pa.epochs > 0) {
      const double old_p =
          static_cast<double>(pa.epochs) / pa.slowdown_sum;
      progress_sum_ -= old_p;
      progress_sq_sum_ -= old_p * old_p;
    } else {
      ++contributors_;
    }
    pa.slowdown_sum += slowdown;
    ++pa.epochs;
    const double new_p = static_cast<double>(pa.epochs) / pa.slowdown_sum;
    progress_sum_ += new_p;
    progress_sq_sum_ += new_p * new_p;
    pa.slowdown_mean->set(pa.slowdown_sum / static_cast<double>(pa.epochs));
    epoch_slowdowns.push_back(slowdown);
    if (worst_app < 0 || slowdown > worst) {
      worst = slowdown;
      worst_app = index;
    }
  }
  if (epoch_slowdowns.empty()) return;
  jain_epoch_ = core::jain_from_slowdowns(epoch_slowdowns);
  jain_cumulative_ =
      contributors_ == 0 || progress_sq_sum_ <= 0.0
          ? 1.0
          : (progress_sum_ * progress_sum_) /
                (static_cast<double>(contributors_) * progress_sq_sum_);
  worst_slowdown_ = worst;
  worst_app_ = worst_app;

  registry_->gauge("app.fairness.jain").set(jain_epoch_);
  registry_->gauge("app.fairness.jain_cumulative").set(jain_cumulative_);
  registry_->gauge("app.fairness.worst_slowdown").set(worst_slowdown_);
  registry_->gauge("app.fairness.worst_app")
      .set(static_cast<double>(worst_app_));
}

void AppStats::on_span_closed(std::int32_t workload, SpanKind kind,
                              sim::Cycles duration) {
  if (!registry_ || workload < 0) return;
  const auto k = static_cast<std::size_t>(kind);
  if (k >= kSpanKindCount) return;
  app(workload).span_cycles[k]->inc(duration);
}

}  // namespace vulcan::obs
