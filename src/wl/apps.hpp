// Application workload models matching the paper's Table 2 and §5.3:
//
//   Memcached  (LC)  in-memory KV store under YCSB-C: 90% GET / 10% SET,
//                    a hot key set receiving 90% of accesses, RSS 51 GB.
//   PageRank   (BE)  memory- and compute-intensive graph sweep, RSS 42 GB.
//   Liblinear  (BE)  linear classification over KDD12: bandwidth-bound
//                    epoch scans, RSS 69 GB.
//
// Capacities are scaled by sim::kCapacityScale (GB -> MB); rates, skews and
// read/write mixes are unscaled so the dilemma dynamics are preserved.
// A Nomad-style microbenchmark workload (Zipfian over a configurable WSS
// inside a larger RSS) backs the §5.2 migration-policy experiments.
#pragma once

#include <memory>

#include "wl/graph.hpp"
#include "wl/workload.hpp"

namespace vulcan::wl {

/// Memcached under YCSB-C-like load (LC). Hot set: 10% of pages take 90%
/// of accesses; dependent hash+pointer lookups expose full memory latency.
class MemcachedModel final : public Workload {
 public:
  explicit MemcachedModel(std::uint64_t seed = 101);
  static WorkloadSpec default_spec();

  /// User-driven demand oscillates (+-30%, ~20 s period) — the burstiness
  /// signature the LC/BE classifier detects.
  double rate_multiplier(double sim_seconds) const override;
};

/// PageRank over a synthetic power-law web graph (BE-ish). Threads sweep
/// private node ranges sequentially while chasing shared in-edges randomly.
class PageRankModel final : public Workload {
 public:
  explicit PageRankModel(std::uint64_t seed = 202);
  static WorkloadSpec default_spec();

  WorkloadAccess next_access(unsigned thread) override;

 private:
  CsrGraph graph_;
  std::vector<std::uint64_t> cursors_;  // per-thread node cursor
};

/// Liblinear on KDD12 (BE): streaming passes over a huge training matrix
/// (private, prefetch-friendly) plus a small hot shared model vector.
class LiblinearModel final : public Workload {
 public:
  explicit LiblinearModel(std::uint64_t seed = 303);
  static WorkloadSpec default_spec();
};

/// The Nomad-microbenchmark workload of §5.2: data placed across the
/// tiers, Zipfian accesses over a working set of `wss_pages` within an RSS
/// of `rss_pages`, with a configurable read/write mix.
class MicrobenchWorkload final : public Workload {
 public:
  struct Params {
    std::uint64_t rss_pages = 4096;
    std::uint64_t wss_pages = 1024;
    unsigned threads = 8;
    double write_ratio = 0.2;
    double zipf_theta = 0.99;
    double access_rate_per_thread = 2e6;
    /// Hot-spot drift: the working set's base offset advances this many
    /// pages per second, cycling through the RSS (0 = stationary). Drift
    /// forces continuous promote/cool/demote churn — the regime where
    /// shadow copies and migration efficiency matter most.
    double drift_pages_per_sec = 0.0;
    std::uint64_t seed = 404;
  };
  explicit MicrobenchWorkload(Params params);

  WorkloadAccess next_access(unsigned thread) override;
  void on_epoch(double sim_seconds) override;

 private:
  std::uint64_t wss_pages_;
  double drift_rate_;
  std::uint64_t offset_ = 0;
};

/// Factory helpers for the co-location study (§5.3 timeline).
std::unique_ptr<Workload> make_memcached(std::uint64_t seed = 101);
std::unique_ptr<Workload> make_pagerank(std::uint64_t seed = 202);
std::unique_ptr<Workload> make_liblinear(std::uint64_t seed = 303);

}  // namespace vulcan::wl
