// Per-page heat tracking: decayed access frequency plus read/write intensity,
// with Memtis-style quota-driven hot/cold classification.
//
// Pages are addressed by their 0-based offset within one workload's RSS.
// Counters decay geometrically each epoch so heat blends frequency with
// recency (the combination §2.1 describes for modern tiering systems).
#pragma once

#include <cstdint>
#include <vector>

namespace vulcan::prof {

class HeatTracker {
 public:
  /// @param pages  RSS size of the tracked workload
  /// @param decay  per-epoch multiplier on all counters (0.5 = halve)
  explicit HeatTracker(std::uint64_t pages, double decay = 0.5);

  /// Record `weight` accesses to `page` (weight scales a sample up to the
  /// real access count it represents).
  void record(std::uint64_t page, bool is_write, double weight = 1.0);

  /// End-of-epoch decay of every counter.
  void decay_epoch();

  std::uint64_t pages() const { return heat_.size(); }
  double heat(std::uint64_t page) const { return heat_[page]; }
  double write_rate(std::uint64_t page) const { return writes_[page]; }

  /// A page is write-intensive when writes are a substantial share of its
  /// traffic (threshold per MTM-style classification).
  bool write_intensive(std::uint64_t page,
                       double write_share_threshold = 0.25) const;

  /// Smallest heat value `h` such that at most `quota` pages have
  /// heat >= h (the Memtis capacity-driven hot threshold). Returns +inf
  /// when quota == 0 and 0 when quota >= pages-with-heat.
  double hot_threshold_for(std::uint64_t quota) const;

  /// Pages with heat >= threshold.
  std::uint64_t count_at_least(double threshold) const;

  /// The `count` hottest pages, hottest first (ties by page id).
  std::vector<std::uint64_t> hottest(std::uint64_t count) const;

  /// Total recorded (decayed) heat mass.
  double total_heat() const;

  /// Working-set knee: the smallest number of pages whose (hottest-first)
  /// heat covers `fraction` of the total heat mass. This is the memory a
  /// workload *usefully* demands — a skewed service needs only its hot set,
  /// a uniform scanner needs nearly everything.
  std::uint64_t coverage_pages(double fraction) const;

 private:
  /// Fill `sort_scratch_` with the IEEE bit patterns of every positive
  /// heat and return it. Positive floats order identically to their raw
  /// bits, so the quota/coverage paths sort plain integers in a reused
  /// buffer instead of allocating a float vector per epoch per policy
  /// (the coverage path's radix sort also uses a second half of it).
  std::vector<std::uint32_t>& collect_nonzero_bits() const;

  double decay_;
  std::vector<float> heat_;
  std::vector<float> reads_;
  std::vector<float> writes_;
  mutable std::vector<std::uint32_t> sort_scratch_;
};

}  // namespace vulcan::prof
