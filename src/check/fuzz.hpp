// Differential fuzz oracle (the dynamic half of vulcan::check).
//
// The InvariantAuditor (check/invariants.hpp) makes state corruption
// observable; the fuzzer makes it *reachable*: randomized-but-seeded
// co-location scenarios are driven through every policy via
// runtime::run_policy_battery at several --jobs levels, asserting that
//   (a) every run completes with zero audit violations, and
//   (b) the deterministic artefacts (policy summaries + full registry
//       snapshots) are byte-identical across job counts — the battery's
//       determinism contract, differentially tested.
//
// Like obs/whatif.hpp, this header lives with its subsystem's vocabulary
// but drives SystemBuilder, so fuzz.cpp compiles into vulcan_runtime.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "runtime/experiment.hpp"

namespace vulcan::check {

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Randomized scenarios derived from the seed (each is a fresh
  /// co-location of 2-3 microbenchmark workloads).
  unsigned scenarios = 2;
  /// Battery worker counts whose artefacts must agree byte-for-byte.
  std::vector<unsigned> jobs = {1, 2, 4};
  /// Policies to battery; empty = runtime::all_policy_names().
  std::vector<std::string> policies;
  /// Simulated seconds per scenario run.
  double seconds = 2.5;
  /// Audit level wired into every run (kOff disables the oracle half and
  /// leaves only the determinism check).
  AuditLevel level = AuditLevel::kFull;
  /// Also re-run each scenario at the reference jobs level with the
  /// vm::Mmu page-walk cache disabled and with several translate-batch
  /// sizes, asserting the artefacts stay byte-identical — the facade's
  /// behavior-neutrality contract, differentially tested.
  bool vary_hotpath = true;
  /// Admission-control differential: every third scenario is replayed at
  /// the reference jobs level twice — once with an admission controller
  /// wired but *disabled*, whose artefacts must stay byte-identical to the
  /// reference (the null-controller inertness contract behind the pinned
  /// digests), and once with admission *enabled* plus the provenance
  /// ledger, asserting clean audits and that every vetoed decision was
  /// finalized (no pending ledger rows). Neither replay touches the
  /// campaign digest.
  bool vary_admission = true;
  /// Enable the provenance ledger in every run: the decision/transition
  /// exports join the cross-jobs artefact comparison and the digest, every
  /// exported decision must have a linked (non-pending) outcome, and the
  /// kProvenanceResidency audit cross-checks ledger residency against the
  /// live page tables each epoch. Off by default — the ledger adds
  /// mig.abort counters to the registry, so provenance digests differ from
  /// the provenance-off pins.
  bool provenance = false;
  /// When non-empty: after a scenario fails, re-run it per policy with the
  /// flight recorder's auto-dump pointed into this (existing) directory,
  /// capturing a black box next to the failure artefacts. Off by default —
  /// the re-runs never touch the digest, but they cost a scenario pass.
  std::string flight_dir;
};

struct FuzzFailure {
  std::string scenario;
  std::string what;
};

struct FuzzResult {
  bool ok = false;
  unsigned scenarios = 0;       ///< scenarios executed
  unsigned runs = 0;            ///< policy x scenario x jobs-level runs
  std::uint64_t audits_passed = 0;  ///< check.audits summed over all runs
  std::vector<FuzzFailure> failures;
  /// FNV-1a 64 hex digest over the reference artefacts of every scenario
  /// (stable for a given seed/options — pin it in CI to detect silent
  /// behaviour change).
  std::string artefact_digest;
  /// Flight dumps written for failing scenarios (FuzzOptions::flight_dir).
  std::vector<std::string> flight_dumps;
};

/// Canonical byte serialization of a battery's summaries (policy order,
/// hexfloat doubles, full registry snapshot). Identical runs produce
/// identical bytes; the fuzzer compares these across job counts. The
/// summaries' tail-fairness windows and migration-cost totals are left
/// out (they post-date the pinned digests), except as the admission
/// ablation's cost line.
std::string serialize_battery(
    std::span<const runtime::PolicyRunSummary> summaries);

/// Run the differential fuzz campaign. Never throws: infrastructure
/// errors, audit failures and determinism breaks all land in
/// FuzzResult::failures.
FuzzResult run_differential_fuzz(const FuzzOptions& options);

}  // namespace vulcan::check
