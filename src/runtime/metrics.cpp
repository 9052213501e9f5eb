#include "runtime/metrics.hpp"

namespace vulcan::runtime {

const std::vector<std::string>& MetricsRecorder::columns() {
  static const std::vector<std::string> kColumns{
      "time_s",        "workload",  "fthr",          "performance",
      "avg_latency_ns", "fast_pages", "slow_pages",   "quota",
      "accesses",      "stall_cycles", "daemon_cycles", "migrated",
      "failed",        "shadow_remaps"};
  return kColumns;
}

void MetricsRecorder::write(obs::Exporter& exporter) const {
  exporter.begin(columns());
  for (const auto& epoch : epochs_) {
    for (std::size_t w = 0; w < epoch.workloads.size(); ++w) {
      const auto& m = epoch.workloads[w];
      const obs::Value row[] = {
          epoch.time_s,
          static_cast<std::uint64_t>(w),
          m.fthr,
          m.performance,
          m.avg_latency_ns,
          m.fast_pages,
          m.slow_pages,
          m.quota,
          m.accesses,
          static_cast<std::uint64_t>(m.stall_cycles),
          static_cast<std::uint64_t>(m.daemon_cycles),
          m.migrated,
          m.failed_migrations,
          m.shadow_remaps,
      };
      exporter.row(row);
    }
  }
  exporter.end();
}

}  // namespace vulcan::runtime
