#include "mig/admission.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "sim/cost_model.hpp"

namespace vulcan::mig {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionController make(AdmissionSpec spec = {}) {
    spec.enabled = true;
    return AdmissionController(spec, params_);
  }

  static AdmissionInputs promotion_inputs(double benefit) {
    AdmissionInputs in;
    in.promotion = true;
    in.predicted_benefit = benefit;
    in.predicted_ipis = 2;
    return in;
  }
  static AdmissionInputs demotion_inputs(double benefit) {
    AdmissionInputs in;
    in.promotion = false;
    in.predicted_benefit = benefit;
    in.predicted_ipis = 2;
    return in;
  }

  sim::CostModelParams params_;
  sim::CostModel cost_;
};

TEST_F(AdmissionTest, PredictCostSinglePageComposesFiveMinusPrep) {
  auto c = make();
  const auto in = promotion_inputs(1.0);
  // Per-request composition: unmap + shootdown + copy + remap. Prep is
  // excluded (charged once per execute() batch, not per request).
  const sim::Cycles expected = cost_.unmap(1) + cost_.shootdown_cold(2) +
                               cost_.copy_single() + cost_.remap(1);
  EXPECT_EQ(c.predict_cost(in), expected);
}

TEST_F(AdmissionTest, PredictCostShadowPathSkipsCopy) {
  auto c = make();
  auto in = demotion_inputs(1.0);
  const sim::Cycles full = c.predict_cost(in);
  in.shadow_path = true;
  EXPECT_EQ(c.predict_cost(in), full - cost_.copy_single())
      << "a clean shadow demotion is a pure remap: no copy phase";
}

TEST_F(AdmissionTest, PredictCostDmaChargesSetupOnly) {
  auto c = make();
  auto in = promotion_inputs(1.0);
  in.dma_copy = true;
  const sim::Cycles expected = cost_.unmap(1) + cost_.shootdown_cold(2) +
                               params_.dma_setup_cycles + cost_.remap(1);
  EXPECT_EQ(c.predict_cost(in), expected);
}

TEST_F(AdmissionTest, PredictCostChunkBatchesShootdownsAndCopies) {
  auto c = make();
  auto in = promotion_inputs(1.0);
  in.pages = 512;
  // The steady-state batched path the migrator charges for a whole chunk
  // (mechanism.hpp chunk_move): amortised unmap/copy/remap and one
  // overlapped flush round.
  const sim::Cycles expected =
      cost_.unmap_batched(512) + cost_.shootdown_batched(512, 2) +
      cost_.copy_batched(512) + cost_.remap_batched(512);
  EXPECT_EQ(c.predict_cost(in), expected);
  EXPECT_LT(c.predict_cost(in), 512 * c.predict_cost(promotion_inputs(1.0)))
      << "whole-chunk moves must be cheaper than 512 singles";
}

TEST_F(AdmissionTest, AdmitsWhenBenefitClearsMarginTimesCost) {
  auto c = make();
  const auto v = c.assess(promotion_inputs(100.0));
  EXPECT_TRUE(v.admitted);
  EXPECT_EQ(v.reason, obs::MigAbortReason::kNone);
  EXPECT_GT(v.predicted_cost, 0u);
  EXPECT_DOUBLE_EQ(v.benefit_cycles, 100.0 * c.spec().benefit_per_heat);
}

TEST_F(AdmissionTest, BenefitCyclesScaleWithPages) {
  auto c = make();
  auto in = promotion_inputs(2.0);
  in.pages = 512;
  const auto v = c.assess(in);
  EXPECT_DOUBLE_EQ(v.benefit_cycles, 2.0 * c.spec().benefit_per_heat * 512.0);
}

TEST_F(AdmissionTest, VetoesNonPositiveBenefit) {
  auto c = make();
  EXPECT_EQ(c.assess(promotion_inputs(0.0)).reason,
            obs::MigAbortReason::kVetoBenefit);
  EXPECT_EQ(c.assess(promotion_inputs(-3.0)).reason,
            obs::MigAbortReason::kVetoBenefit);
  EXPECT_EQ(c.assess(demotion_inputs(-0.5)).reason,
            obs::MigAbortReason::kVetoBenefit);
  EXPECT_EQ(c.vetoed(), 3u);
  EXPECT_EQ(c.admitted(), 0u);
}

TEST_F(AdmissionTest, VetoesBenefitBelowMarginTimesCost) {
  auto c = make();
  // Positive but tiny: 0.001 heat-units * 4000 cycles/unit = 4 cycles,
  // far below the ~40K-cycle single-page cost.
  const auto v = c.assess(promotion_inputs(0.001));
  EXPECT_FALSE(v.admitted);
  EXPECT_EQ(v.reason, obs::MigAbortReason::kVetoCost);
  EXPECT_LT(v.benefit_cycles, static_cast<double>(v.predicted_cost));
}

TEST_F(AdmissionTest, MarginScalesTheCostBar) {
  AdmissionSpec lax;
  lax.margin = 0.0;
  auto permissive = make(lax);
  EXPECT_TRUE(permissive.assess(promotion_inputs(0.001)).admitted)
      << "zero margin admits any positive-benefit request";

  AdmissionSpec strict;
  strict.margin = 1e9;
  auto paranoid = make(strict);
  EXPECT_EQ(paranoid.assess(promotion_inputs(100.0)).reason,
            obs::MigAbortReason::kVetoCost);
}

TEST_F(AdmissionTest, PressureVetoPreemptsEvenHugeBenefit) {
  auto c = make();
  auto in = promotion_inputs(1e6);
  in.dest_free_fraction = c.spec().pressure_floor / 2.0;
  const auto v = c.assess(in);
  EXPECT_FALSE(v.admitted);
  EXPECT_EQ(v.reason, obs::MigAbortReason::kVetoPressure)
      << "promotion into a full tier aborts kDestinationFull after paying "
         "unmap + shootdown; veto it up front";
}

TEST_F(AdmissionTest, PressureFloorDoesNotApplyToDemotions) {
  auto c = make();
  auto in = demotion_inputs(100.0);
  in.dest_free_fraction = 0.0;  // slow tier full: not the promotion case
  EXPECT_TRUE(c.assess(in).admitted);
}

TEST_F(AdmissionTest, ReliefExemptionAdmitsPressureDemotionsUnconditionally) {
  auto c = make();
  auto in = demotion_inputs(-10.0);  // wrong-direction by the score...
  in.source_free_fraction = c.spec().relief_floor / 2.0;  // ...but relief
  const auto v = c.assess(in);
  EXPECT_TRUE(v.admitted)
      << "pressure relief backs the fairness quotas; never veto it";
  EXPECT_EQ(v.reason, obs::MigAbortReason::kNone);
}

TEST_F(AdmissionTest, ReliefExemptionNeverAppliesToPromotions) {
  auto c = make();
  auto in = promotion_inputs(-1.0);
  in.source_free_fraction = 0.0;
  EXPECT_EQ(c.assess(in).reason, obs::MigAbortReason::kVetoBenefit);
}

TEST_F(AdmissionTest, VerdictTotalsAndCountersTrack) {
  obs::Registry reg;
  const sim::Cycles clock = 0;
  auto c = make();
  c.set_obs(obs::Scope(&reg, nullptr, &clock, "adm"), "vulcan");

  c.assess(promotion_inputs(100.0));   // admitted
  c.assess(promotion_inputs(-1.0));    // veto_benefit
  c.assess(promotion_inputs(0.001));   // veto_cost
  auto pressured = promotion_inputs(50.0);
  pressured.dest_free_fraction = 0.0;
  c.assess(pressured);                 // veto_pressure

  EXPECT_EQ(c.admitted(), 1u);
  EXPECT_EQ(c.vetoed(), 3u);
  EXPECT_EQ(reg.counter_value("adm.admitted"), 1u);
  EXPECT_EQ(reg.counter_value("adm.admitted{policy=vulcan}"), 1u);
  EXPECT_EQ(reg.counter_value("adm.vetoed"), 3u);
  EXPECT_EQ(reg.counter_value("adm.vetoed{policy=vulcan,reason=veto_benefit}"),
            1u);
  EXPECT_EQ(reg.counter_value("adm.vetoed{policy=vulcan,reason=veto_cost}"),
            1u);
  EXPECT_EQ(
      reg.counter_value("adm.vetoed{policy=vulcan,reason=veto_pressure}"), 1u);
}

}  // namespace
}  // namespace vulcan::mig
