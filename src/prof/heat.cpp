#include "prof/heat.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>

#include "sim/radix_sort.hpp"

namespace vulcan::prof {

HeatTracker::HeatTracker(std::uint64_t pages, double decay)
    : decay_(decay), heat_(pages, 0.f), reads_(pages, 0.f),
      writes_(pages, 0.f) {
  assert(decay >= 0.0 && decay <= 1.0);
}

void HeatTracker::record(std::uint64_t page, bool is_write, double weight) {
  assert(page < heat_.size());
  const auto w = static_cast<float>(weight);
  heat_[page] += w;
  (is_write ? writes_ : reads_)[page] += w;
}

void HeatTracker::decay_epoch() {
  const auto d = static_cast<float>(decay_);
  for (auto& h : heat_) h *= d;
  for (auto& r : reads_) r *= d;
  for (auto& w : writes_) w *= d;
}

bool HeatTracker::write_intensive(std::uint64_t page,
                                  double write_share_threshold) const {
  const double total = reads_[page] + writes_[page];
  if (total <= 0.0) return false;
  return writes_[page] / total > write_share_threshold;
}

double HeatTracker::hot_threshold_for(std::uint64_t quota) const {
  if (quota == 0) return std::numeric_limits<double>::infinity();
  // Collect nonzero heats; if fewer than quota, everything warm is hot.
  std::vector<std::uint32_t>& nz = collect_nonzero_bits();
  if (nz.size() <= quota) return nz.empty() ? 0.0 : 1e-30;
  // The quota-th largest heat value.
  auto nth = nz.begin() + static_cast<std::ptrdiff_t>(quota - 1);
  std::nth_element(nz.begin(), nth, nz.end(),
                   std::greater<std::uint32_t>());
  return static_cast<double>(std::bit_cast<float>(*nth));
}

std::uint64_t HeatTracker::count_at_least(double threshold) const {
  std::uint64_t n = 0;
  for (const float h : heat_) n += (h >= threshold && h > 0.f);
  return n;
}

std::vector<std::uint64_t> HeatTracker::hottest(std::uint64_t count) const {
  std::vector<std::uint64_t> idx(heat_.size());
  std::iota(idx.begin(), idx.end(), 0);
  const std::uint64_t k = std::min<std::uint64_t>(count, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::uint64_t a, std::uint64_t b) {
                      if (heat_[a] != heat_[b]) return heat_[a] > heat_[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

double HeatTracker::total_heat() const {
  return std::accumulate(heat_.begin(), heat_.end(), 0.0);
}

std::uint64_t HeatTracker::coverage_pages(double fraction) const {
  const double total = total_heat();
  if (total <= 0.0) return 0;
  std::vector<std::uint32_t>& nz = collect_nonzero_bits();
  // Tiny relative tolerance so float accumulation at exact-fraction
  // boundaries doesn't pull in one extra page.
  const double target =
      std::clamp(fraction, 0.0, 1.0) * total * (1.0 - 1e-6);
  // Double sums depend on the order of their terms, so the heats must be
  // added hottest first. A radix sort yields that order in O(n) where a
  // comparison sort (or a widening selection, on a flat heat profile)
  // pays O(n log n); its passes ping-pong between the two halves of the
  // scratch buffer. Ties are equal floats, so their order cannot change
  // the sum.
  const std::size_t n = nz.size();
  nz.resize(2 * n);
  sim::radix_sort(nz.data(), nz.data() + n, n);
  double covered = 0.0;
  std::uint64_t pages = 0;
  for (std::size_t i = n; i > 0 && covered < target; --i) {
    covered += static_cast<double>(std::bit_cast<float>(nz[i - 1]));
    ++pages;
  }
  return pages;
}

std::vector<std::uint32_t>& HeatTracker::collect_nonzero_bits() const {
  sort_scratch_.clear();
  sort_scratch_.reserve(heat_.size());
  for (const float h : heat_) {
    if (h > 0.f) sort_scratch_.push_back(std::bit_cast<std::uint32_t>(h));
  }
  return sort_scratch_;
}

}  // namespace vulcan::prof
