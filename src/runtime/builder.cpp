#include "runtime/builder.hpp"

#include <stdexcept>
#include <string>

#include "runtime/experiment.hpp"

namespace vulcan::runtime {

BuildResult SystemBuilder::build() {
  if (std::string error = TieredSystem::validate(config_); !error.empty()) {
    return BuildResult::failure(std::move(error));
  }

  std::unique_ptr<policy::SystemPolicy> policy = std::move(policy_);
  if (!policy) {
    if (policy_name_.empty()) {
      return BuildResult::failure("no policy configured");
    }
    try {
      policy = make_policy(policy_name_, config_.machine.cores);
    } catch (const std::invalid_argument&) {
      return BuildResult::failure("unknown policy \"" + policy_name_ + "\"");
    }
  }

  auto system = std::make_unique<TieredSystem>(config_, std::move(policy));
  for (auto& staged : staged_) {
    system->add_workload(std::move(staged.workload), staged.profiler);
  }
  staged_.clear();
  return BuildResult(std::move(system));
}

}  // namespace vulcan::runtime
