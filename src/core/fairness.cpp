#include "core/fairness.hpp"

namespace vulcan::core {

void CfiAccumulator::record_epoch(std::span<const obs::AppEpochRow> rows) {
  if (rows.size() > x_.size()) x_.resize(rows.size(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    x_[i] += static_cast<double>(rows[i].fast_pages) * rows[i].fthr;
  }
  ++epochs_;
}

double CfiAccumulator::cfi() const { return jain_index(x_); }

}  // namespace vulcan::core
