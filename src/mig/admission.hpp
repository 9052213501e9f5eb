// mig::AdmissionController — benefit/cost veto stage in front of the
// migrator.
//
// CBFRP and the baseline policies decide *which* pages move but never ask
// whether a move is worth its cost; antagonist-heavy co-locations burn
// migration bandwidth (and shootdown IPIs charged to victims) on moves
// that never pay off. The controller sits between policy::record_decision
// and Migrator::execute and scores every MigrationRequest:
//
//   predicted cost     the total of the mechanism.hpp composition the
//                      migrator charges for the path it would actually
//                      take — page_move() or chunk_move(), shadow remap
//                      (no copy), DMA or CPU copy — with the shootdown
//                      term sized from the live sharer set the migrator
//                      proves via per-thread page tables.
//   predicted benefit  the decision's heat margin over its own admission
//                      threshold (MigrationRequest::predicted_benefit,
//                      positive iff the issuing policy predicts profit),
//                      converted to cycles via a calibrated slope.
//
// A request is vetoed when the benefit does not clear `margin` times the
// cost, when its benefit is non-positive (a wrong-direction move), or when
// it is a promotion into a destination tier with no headroom (it would
// abort kDestinationFull after paying unmap + shootdown anyway). Demotions
// out of a nearly-full tier are exempt: pressure relief must never be
// vetoed, or the veto starves the very quota enforcement fairness rests
// on.
//
// The controller is pure arithmetic plus adm.* counters; it is OFF unless
// SystemBuilder.admission wires it, and a null controller pointer in the
// migrator leaves every admission-off code path byte-identical.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "mig/mechanism.hpp"
#include "mig/migration.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"

namespace vulcan::mig {

/// Tunables of the veto stage (SystemBuilder.admission).
struct AdmissionSpec {
  bool enabled = false;
  /// Benefit must exceed `margin` x predicted cost (in cycles) to pass.
  double margin = 1.0;
  /// Cycles of predicted saved access latency per unit of heat margin per
  /// page. Calibrated against the dilemma/fleet scenarios: heat is the
  /// tracker's decayed access score, and a page one heat-unit above its
  /// policy's cut amortises roughly this many cycles of tier-latency gap
  /// before the next ranking flips it back.
  double benefit_per_heat = 4000.0;
  /// Veto promotions whose destination tier has less than this free
  /// fraction (the move would abort kDestinationFull after paying the
  /// unmap and shootdown phases).
  double pressure_floor = 0.02;
  /// Admit every demotion out of a tier with less than this free fraction
  /// regardless of score: pressure relief backs the fairness quotas.
  double relief_floor = 0.0625;
};

/// Everything the migrator knows about one request at admission time.
struct AdmissionInputs {
  bool promotion = false;
  /// Clean demotion satisfiable by a live shadow copy: pure remap, no copy.
  bool shadow_path = false;
  /// Copy is queued to a DMA engine (cheap CPU-side setup only).
  bool dma_copy = false;
  std::uint64_t pages = 1;  ///< 1, or the chunk size for whole-chunk moves
  /// Remote cores the shootdown would IPI (live sharer set under targeted
  /// shootdown, the process broadcast set otherwise).
  unsigned predicted_ipis = 0;
  double predicted_benefit = 0.0;  ///< MigrationRequest::predicted_benefit
  double dest_free_fraction = 1.0;
  double source_free_fraction = 1.0;
};

struct AdmissionVerdict {
  bool admitted = true;
  obs::MigAbortReason reason = obs::MigAbortReason::kNone;
  sim::Cycles predicted_cost = 0;
  double benefit_cycles = 0.0;
};

class AdmissionController {
 public:
  AdmissionController(const AdmissionSpec& spec,
                      const sim::CostModelParams& cost_params)
      : spec_(spec), cost_(cost_params) {}

  const AdmissionSpec& spec() const { return spec_; }

  /// Attach observability: verdicts land as adm.admitted / adm.vetoed
  /// counters plus `{policy,reason}`-labelled variants, feeding the
  /// time-series store and the admission-veto-share SLO rule. `policy` is
  /// the running policy's name (every workload shares one controller).
  void set_obs(obs::Scope scope, std::string policy);

  /// Predicted cycle cost of executing `in`: the total() of page_move()
  /// (pages <= 1) or chunk_move(), exactly what the migrator charges (prep
  /// excluded — it is charged once per execute() batch, not per request).
  sim::Cycles predict_cost(const AdmissionInputs& in) const;

  /// Score one request and record the verdict in the adm.* counters.
  AdmissionVerdict assess(const AdmissionInputs& in);

  std::uint64_t admitted() const { return admitted_total_; }
  std::uint64_t vetoed() const { return vetoed_total_; }

 private:
  static constexpr std::size_t kVetoReasons = 3;  // benefit, cost, pressure

  AdmissionSpec spec_;
  sim::CostModel cost_;
  obs::Scope obs_;
  std::uint64_t admitted_total_ = 0;
  std::uint64_t vetoed_total_ = 0;
  obs::Counter* admitted_count_ = &obs::detail::dummy_counter;
  obs::Counter* admitted_policy_count_ = &obs::detail::dummy_counter;
  obs::Counter* vetoed_count_ = &obs::detail::dummy_counter;
  std::array<obs::Counter*, kVetoReasons> veto_reason_counts_{
      &obs::detail::dummy_counter, &obs::detail::dummy_counter,
      &obs::detail::dummy_counter};
};

}  // namespace vulcan::mig
