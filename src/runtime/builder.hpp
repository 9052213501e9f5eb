// SystemBuilder: the fluent public construction API for TieredSystem.
//
//   auto built = runtime::SystemBuilder{}
//                    .machine({.cores = 32})
//                    .epoch_ms(250)
//                    .profiler(runtime::ProfilerKind::kHybrid)
//                    .seed(42)
//                    .policy("vulcan")
//                    .add_workload(wl::make_memcached())
//                    .build();
//   if (!built) { /* built.error() explains what was wrong */ }
//   runtime::TieredSystem& sys = *built.value();
//
// build() reports misconfigurations (slowest tier first, zero samples, zero
// cores, unknown policy name, ...) as an expected-style result instead of
// throwing: messages the caller can print. The configuration checks are
// TieredSystem::validate, which a TieredSystem constructed directly from a
// Config runs too, throwing std::invalid_argument with the same message.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/system.hpp"

namespace vulcan::runtime {

/// Minimal expected-style result (the repo targets C++20; std::expected is
/// C++23). Holds either a value or an error message.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  static Expected failure(std::string message) {
    Expected e;
    e.error_ = std::move(message);
    return e;
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Valid only when ok().
  T& value() { return *value_; }
  const T& value() const { return *value_; }
  /// Empty when ok().
  const std::string& error() const { return error_; }

 private:
  Expected() = default;
  std::optional<T> value_;
  std::string error_;
};

using BuildResult = Expected<std::unique_ptr<TieredSystem>>;

class SystemBuilder {
 public:
  SystemBuilder() = default;

  SystemBuilder& machine(sim::MachineConfig m) {
    config_.machine = m;
    return *this;
  }
  /// Arbitrary topology override (HBM + DRAM + CXL, ...). Tier 0 must be
  /// the fastest and at most mem::kMaxTiers tiers fit; build() enforces
  /// both.
  SystemBuilder& tiers(std::vector<mem::TierConfig> tiers) {
    config_.custom_tiers = std::move(tiers);
    return *this;
  }
  SystemBuilder& epoch(sim::Cycles cycles) {
    config_.epoch = cycles;
    return *this;
  }
  SystemBuilder& epoch_ms(double ms) {
    config_.epoch = sim::CpuClock::from_nanos(
        static_cast<std::uint64_t>(ms * 1e6));
    return *this;
  }
  SystemBuilder& samples_per_epoch(std::uint64_t samples) {
    config_.samples_per_epoch = samples;
    return *this;
  }
  SystemBuilder& cores_per_workload(unsigned cores) {
    config_.cores_per_workload = cores;
    return *this;
  }
  SystemBuilder& heat_decay(double decay) {
    config_.heat_decay = decay;
    return *this;
  }
  SystemBuilder& profiler(ProfilerKind kind) {
    config_.profiler = kind;
    return *this;
  }
  SystemBuilder& seed(std::uint64_t seed) {
    config_.seed = seed;
    return *this;
  }
  SystemBuilder& trace_capacity(std::size_t events) {
    config_.trace_capacity = events;
    return *this;
  }
  /// Toggle hierarchical timeline spans (on by default; see
  /// Config::record_spans).
  SystemBuilder& spans(bool on) {
    config_.record_spans = on;
    return *this;
  }
  /// Invariant-audit level run at epoch boundaries (default kBasic; see
  /// Config::audit). kFull adds registry-counter drift checks.
  SystemBuilder& audit(check::AuditLevel level) {
    config_.audit = level;
    return *this;
  }
  /// Audit every n-th epoch (default 1; 0 disables the periodic hook
  /// without changing the level used by TieredSystem::run_audit).
  SystemBuilder& audit_every(std::uint64_t n) {
    config_.audit_every = n;
    return *this;
  }
  /// Software page-walk cache in the vm::Mmu facade (default on).
  /// Behavior-neutral by contract: artefacts are bit-identical either
  /// way; the differential fuzz oracle toggles it.
  SystemBuilder& pwc(bool on) {
    config_.pwc = on;
    return *this;
  }
  /// Accesses per vm::Mmu::translate_batch call (default 256). Any value
  /// >= 1 produces identical artefacts — the fuzz oracle varies it.
  SystemBuilder& translate_batch(std::uint64_t accesses) {
    config_.translate_batch = accesses;
    return *this;
  }
  /// Time-series store configuration (window width, retention, EWMA
  /// weight). The store itself is always on; see Config::timeseries.
  SystemBuilder& timeseries(obs::TimeSeriesConfig cfg) {
    config_.timeseries = cfg;
    return *this;
  }
  /// Install SLO rules (e.g. obs::default_slo_pack()). Opt-in: rules add
  /// slo.* counters to the registry snapshot.
  SystemBuilder& slo(std::vector<obs::SloSpec> rules) {
    config_.slo_rules = std::move(rules);
    return *this;
  }
  /// Flight-recorder auto-dump path (written at most once, on the first
  /// audit failure / critical SLO / engine exception).
  SystemBuilder& flight_dump(std::string path) {
    config_.flight_dump_path = std::move(path);
    return *this;
  }
  /// Master telemetry switch (store + SLO + flight recorder). Off exists
  /// for the bench guard's overhead measurement.
  SystemBuilder& telemetry(bool on) {
    config_.telemetry = on;
    return *this;
  }
  /// Decision provenance ledger (obs/provenance.hpp). Off by default so
  /// pinned fuzz digests and default artefacts are unchanged; on, every
  /// policy decision and page transition is recorded for vulcan_pagescope
  /// and the check:: residency cross-audit.
  SystemBuilder& provenance(bool on) {
    config_.provenance.enabled = on;
    return *this;
  }
  /// Migration admission control (mig/admission.hpp): score every
  /// MigrationRequest's predicted benefit against its calibrated cost and
  /// veto the ones that don't clear the margin. Off by default
  /// (spec.enabled = false) — the migrators then carry a null controller
  /// and every artefact stays byte-identical to an admission-free build.
  /// Works unmodified under every policy in the zoo.
  SystemBuilder& admission(mig::AdmissionSpec spec) {
    config_.admission = spec;
    return *this;
  }

  /// Direct access to the staged configuration: the what-if engine
  /// (obs/whatif.hpp) scales individual cost constants here between
  /// configure and build(), and Config fields without a setter (thp,
  /// cost_params, audit_throw, flight_epochs, ...) are set through it.
  TieredSystem::Config& config() { return config_; }
  const TieredSystem::Config& config() const { return config_; }

  /// Install a concrete policy instance...
  SystemBuilder& policy(std::unique_ptr<policy::SystemPolicy> policy) {
    policy_ = std::move(policy);
    policy_name_.clear();
    return *this;
  }
  /// ...or name one ("vulcan", "tpp", "memtis", "nomad", "mtm", "cascade").
  /// Unknown names surface as build() errors, not exceptions.
  SystemBuilder& policy(std::string_view name) {
    policy_name_ = std::string(name);
    policy_.reset();
    return *this;
  }

  /// Stage a workload; it is registered (in staging order) on the freshly
  /// built system, so indices are 0, 1, ... as with TieredSystem directly.
  SystemBuilder& add_workload(std::unique_ptr<wl::Workload> workload,
                              std::optional<ProfilerKind> profiler =
                                  std::nullopt) {
    staged_.push_back({std::move(workload), profiler});
    return *this;
  }

  /// Validate and construct. Consumes the staged policy and workloads.
  BuildResult build();

 private:
  struct Staged {
    std::unique_ptr<wl::Workload> workload;
    std::optional<ProfilerKind> profiler;
  };

  TieredSystem::Config config_;
  std::unique_ptr<policy::SystemPolicy> policy_;
  std::string policy_name_ = "vulcan";
  std::vector<Staged> staged_;
};

}  // namespace vulcan::runtime
