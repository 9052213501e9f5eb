#include "mig/admission.hpp"

namespace vulcan::mig {

namespace {

/// Index into veto_reason_counts_ for a veto reason.
std::size_t veto_index(obs::MigAbortReason r) {
  switch (r) {
    case obs::MigAbortReason::kVetoBenefit: return 0;
    case obs::MigAbortReason::kVetoCost: return 1;
    case obs::MigAbortReason::kVetoPressure: return 2;
    default: return 0;
  }
}

}  // namespace

void AdmissionController::set_obs(obs::Scope scope, std::string policy) {
  obs_ = std::move(scope);
  admitted_count_ = &obs_.counter("admitted");
  admitted_policy_count_ = &obs_.counter("admitted{policy=" + policy + "}");
  vetoed_count_ = &obs_.counter("vetoed");
  static constexpr obs::MigAbortReason kVetoes[kVetoReasons] = {
      obs::MigAbortReason::kVetoBenefit, obs::MigAbortReason::kVetoCost,
      obs::MigAbortReason::kVetoPressure};
  for (const obs::MigAbortReason r : kVetoes) {
    veto_reason_counts_[veto_index(r)] = &obs_.counter(
        "vetoed{policy=" + policy + ",reason=" +
        obs::mig_abort_reason_name(r) + "}");
  }
}

sim::Cycles AdmissionController::predict_cost(
    const AdmissionInputs& in) const {
  const CopyKind copy = in.shadow_path ? CopyKind::kNone
                        : in.dma_copy  ? CopyKind::kDma
                                       : CopyKind::kCpu;
  const PhaseBreakdown move =
      in.pages <= 1 ? page_move(cost_, in.predicted_ipis, copy)
                    : chunk_move(cost_, in.pages, in.predicted_ipis, copy);
  return move.total();
}

AdmissionVerdict AdmissionController::assess(const AdmissionInputs& in) {
  AdmissionVerdict v;
  v.predicted_cost = predict_cost(in);
  v.benefit_cycles = in.predicted_benefit * spec_.benefit_per_heat *
                     static_cast<double>(in.pages ? in.pages : 1);

  const bool relief = !in.promotion &&
                      in.source_free_fraction < spec_.relief_floor;
  if (!relief) {
    if (in.promotion && in.dest_free_fraction < spec_.pressure_floor) {
      v.admitted = false;
      v.reason = obs::MigAbortReason::kVetoPressure;
    } else if (in.predicted_benefit <= 0.0) {
      v.admitted = false;
      v.reason = obs::MigAbortReason::kVetoBenefit;
    } else if (v.benefit_cycles <
               spec_.margin * static_cast<double>(v.predicted_cost)) {
      v.admitted = false;
      v.reason = obs::MigAbortReason::kVetoCost;
    }
  }

  if (v.admitted) {
    ++admitted_total_;
    admitted_count_->inc();
    admitted_policy_count_->inc();
  } else {
    ++vetoed_total_;
    vetoed_count_->inc();
    veto_reason_counts_[veto_index(v.reason)]->inc();
  }
  return v;
}

}  // namespace vulcan::mig
