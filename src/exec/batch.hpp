// BatchRunner — deterministic fan-out for independent simulations.
//
// The determinism contract: a batch's *merged output is byte-identical for
// any worker count, including 1*. It holds because
//
//   * every job is self-contained — it builds its own system, registry
//     and TraceRing (no shared mutable state), so thread
//     interleaving cannot perturb a result;
//   * outcomes land in a pre-sized slot vector indexed by submission
//     order, so the merge order is the submission order no matter which
//     worker finished first;
//   * a job that throws fills its slot's failure field instead of
//     crashing the batch — the error text is data, merged like any result.
//
// Wall-clock and per-job timing are measured and published under `exec.*`
// registry keys, but deliberately kept *out* of the job outcomes: timing
// is real time, inherently non-deterministic, and must never leak into a
// byte-compared artefact.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace vulcan::exec {

/// One job's slot: either a value or the captured exception text.
template <typename R>
struct JobOutcome {
  std::optional<R> value;
  std::string error;  ///< non-empty iff the job threw
  bool ok() const { return value.has_value(); }
};

/// Real-time accounting for one executed batch. Published under `exec.*`
/// keys; never part of deterministic artefacts.
struct BatchStats {
  unsigned workers = 1;          ///< workers actually used
  std::size_t jobs = 0;
  std::size_t failures = 0;
  double wall_ms = 0.0;          ///< whole batch, submission to merge
  double job_wall_ms_sum = 0.0;  ///< serialized cost of the same work
  double job_wall_ms_max = 0.0;  ///< critical path lower bound

  /// Ideal-vs-actual ratio (serialized cost / batch wall); ~workers when
  /// the batch scales, ~1 when one job dominates.
  double speedup() const {
    return wall_ms > 0.0 ? job_wall_ms_sum / wall_ms : 1.0;
  }

  /// Publish as exec.* instruments: `exec.batch.jobs` / `.failures` /
  /// `.batches` counters, `exec.batch.workers` / `.wall_ms` /
  /// `.job_wall_ms_sum` / `.speedup` gauges.
  void publish(obs::Registry& registry) const;
};

/// Runs a vector of independent jobs on a fixed-size worker pool and
/// returns their outcomes in submission order. Reusable; `stats()` always
/// describes the most recent batch.
class BatchRunner {
 public:
  /// `workers` = 0 picks ThreadPool::recommended_workers(job count) at
  /// run() time; any other value is capped by the job count.
  explicit BatchRunner(unsigned workers = 0) : workers_(workers) {}

  template <typename R>
  std::vector<JobOutcome<R>> run(std::vector<std::function<R()>> jobs) {
    using Clock = std::chrono::steady_clock;
    std::vector<JobOutcome<R>> outcomes(jobs.size());
    std::vector<double> job_ms(jobs.size(), 0.0);
    const auto batch_start = Clock::now();

    auto run_one = [&](std::size_t i) {
      const auto start = Clock::now();
      try {
        outcomes[i].value.emplace(jobs[i]());
      } catch (const std::exception& e) {
        outcomes[i].error = e.what();
      } catch (...) {
        outcomes[i].error = "unknown exception";
      }
      job_ms[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    };

    const unsigned workers = resolve_workers(jobs.size());
    if (workers <= 1 || jobs.size() <= 1) {
      for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    } else {
      // Each worker writes only its own slots; ThreadPool::wait() supplies
      // the happens-before edge back to this thread.
      ThreadPool pool(workers);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        pool.submit([&run_one, i] { run_one(i); });
      }
      pool.wait();
    }

    stats_ = BatchStats{};
    stats_.workers = workers;
    stats_.jobs = jobs.size();
    stats_.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - batch_start)
            .count();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!outcomes[i].ok()) ++stats_.failures;
      stats_.job_wall_ms_sum += job_ms[i];
      if (job_ms[i] > stats_.job_wall_ms_max) {
        stats_.job_wall_ms_max = job_ms[i];
      }
    }
    return outcomes;
  }

  const BatchStats& stats() const { return stats_; }

  /// Worker count a batch of `job_count` jobs would actually use.
  unsigned resolve_workers(std::size_t job_count) const {
    if (job_count <= 1) return 1;
    unsigned w = workers_ != 0 ? workers_
                               : ThreadPool::recommended_workers(job_count);
    if (w > job_count) w = static_cast<unsigned>(job_count);
    return w < 1 ? 1 : w;
  }

 private:
  unsigned workers_;
  BatchStats stats_;
};

/// Unwrap a batch in submission order, throwing std::runtime_error listing
/// every failed slot (index + error) when any job failed. `what` names the
/// batch in the error message ("what-if grid", "fig2 battery", ...).
template <typename R>
std::vector<R> values_or_throw(std::vector<JobOutcome<R>> outcomes,
                               const std::string& what) {
  std::string errors;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      errors += (errors.empty() ? "" : "; ") + ("job " + std::to_string(i) +
                                                ": " + outcomes[i].error);
    }
  }
  if (!errors.empty()) {
    throw std::runtime_error(what + " failed: " + errors);
  }
  std::vector<R> values;
  values.reserve(outcomes.size());
  for (JobOutcome<R>& o : outcomes) values.push_back(std::move(*o.value));
  return values;
}

}  // namespace vulcan::exec
