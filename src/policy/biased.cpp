#include "policy/biased.hpp"

#include <algorithm>

namespace vulcan::policy {

std::vector<mig::MigrationRequest> BiasedQueues::drain(std::uint64_t budget) {
  std::vector<mig::MigrationRequest> out;
  out.reserve(std::min<std::uint64_t>(budget, backlog()));
  // (heat desc, vpn asc) is a total order (vpns are unique across the
  // queues), so selecting the `take` hottest and sorting only those drains
  // what a full sort would; the next drain re-ranks whatever is left.
  const auto hotter = [](const mig::MigrationRequest& a,
                         const mig::MigrationRequest& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.vpn < b.vpn;
  };
  for (auto& queue : queues_) {
    if (out.size() >= budget) break;
    const std::uint64_t take =
        std::min<std::uint64_t>(budget - out.size(), queue.size());
    const auto taken = queue.begin() + static_cast<std::ptrdiff_t>(take);
    if (taken != queue.end()) {
      std::nth_element(queue.begin(), taken, queue.end(), hotter);
    }
    std::sort(queue.begin(), taken, hotter);
    for (auto it = queue.begin(); it != taken; ++it) queued_.erase(it->vpn);
    out.insert(out.end(), queue.begin(), taken);
    queue.erase(queue.begin(), taken);
  }
  return out;
}

}  // namespace vulcan::policy
