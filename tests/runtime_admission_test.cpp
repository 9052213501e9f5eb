// Runtime-level contracts of the admission-control veto stage:
// null-controller inertness (wired-but-disabled runs are byte-identical to
// admission-free builds), battery determinism across worker counts with an
// admission ablation attached, and the veto-finalization rule (a vetoed
// request's DecisionRecord must never linger pending).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "check/fuzz.hpp"
#include "mig/admission.hpp"
#include "obs/provenance.hpp"
#include "runtime/builder.hpp"
#include "runtime/experiment.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

/// Two microbench apps over a small fast tier: enough pressure and churn
/// that every policy issues both promotions and demotions.
void configure_pressured(SystemBuilder& b) {
  b.tiers({{"dram", 1024, 70, 205.0}, {"cxl", 16384, 162, 25.0}})
      .samples_per_epoch(3000);
}

std::vector<StagedWorkload> stage_pressured() {
  std::vector<StagedWorkload> stages;
  wl::MicrobenchWorkload::Params hot;
  hot.rss_pages = 2048;
  hot.wss_pages = 512;
  hot.seed = 7;
  stages.push_back({0.0, std::make_unique<wl::MicrobenchWorkload>(hot)});
  wl::MicrobenchWorkload::Params scan;
  scan.rss_pages = 2048;
  scan.wss_pages = 1536;
  scan.drift_pages_per_sec = 2000.0;
  scan.seed = 8;
  stages.push_back({1.0, std::make_unique<wl::MicrobenchWorkload>(scan)});
  return stages;
}

ScenarioSpec pressured_spec() {
  ScenarioSpec spec;
  spec.name = "admission";
  spec.seconds = 4.0;
  spec.seed = 11;
  spec.configure = configure_pressured;
  spec.stage = stage_pressured;
  return spec;
}

std::unique_ptr<TieredSystem> build_pressured(
    const std::function<void(SystemBuilder&)>& extra = {}) {
  SystemBuilder builder;
  builder.seed(11).policy("vulcan");
  configure_pressured(builder);
  if (extra) extra(builder);
  wl::MicrobenchWorkload::Params hot;
  hot.rss_pages = 2048;
  hot.wss_pages = 512;
  hot.seed = 7;
  builder.add_workload(std::make_unique<wl::MicrobenchWorkload>(hot));
  wl::MicrobenchWorkload::Params scan;
  scan.rss_pages = 2048;
  scan.wss_pages = 1536;
  scan.drift_pages_per_sec = 2000.0;
  scan.seed = 8;
  builder.add_workload(std::make_unique<wl::MicrobenchWorkload>(scan));
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error();
  return std::move(built.value());
}

TEST(AdmissionRuntime, WiredButDisabledIsByteIdentical) {
  auto plain = build_pressured();
  auto wired = build_pressured([](SystemBuilder& b) {
    b.admission(mig::AdmissionSpec{});  // enabled = false
  });
  EXPECT_EQ(wired->admission_controller(), nullptr)
      << "a disabled spec must not construct a controller";
  plain->run_epochs(16);
  wired->run_epochs(16);

  std::ostringstream a, b;
  plain->obs_registry().write_json(a);
  wired->obs_registry().write_json(b);
  EXPECT_EQ(a.str(), b.str()) << "no adm.* keys, no behaviour drift";

  std::ostringstream ca, cb;
  obs::CsvExporter ca_csv(ca), cb_csv(cb);
  plain->metrics().write(ca_csv);
  wired->metrics().write(cb_csv);
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(AdmissionRuntime, EnabledControllerScoresEveryRequest) {
  auto sys = build_pressured([](SystemBuilder& b) {
    mig::AdmissionSpec spec;
    spec.enabled = true;
    b.admission(spec);
  });
  ASSERT_NE(sys->admission_controller(), nullptr);
  sys->run_epochs(24);
  const mig::AdmissionController& ctrl = *sys->admission_controller();
  EXPECT_GT(ctrl.admitted(), 0u);
  EXPECT_TRUE(sys->obs_registry().has_counter("adm.admitted"));
  EXPECT_TRUE(sys->obs_registry().has_counter("adm.admitted{policy=vulcan}"));
  EXPECT_EQ(sys->obs_registry().counter_value("adm.admitted"),
            ctrl.admitted());
  EXPECT_EQ(sys->obs_registry().counter_value("adm.vetoed"), ctrl.vetoed());
  // Migrator-side veto stats agree with the controller's verdicts.
  std::uint64_t migrator_vetoed = 0;
  for (unsigned w = 0; w < sys->workload_count(); ++w) {
    migrator_vetoed += sys->migrator(w).totals().vetoed;
  }
  EXPECT_EQ(migrator_vetoed, ctrl.vetoed());
}

TEST(AdmissionRuntime, VetoesFinalizeTheirDecisionRecords) {
  auto sys = build_pressured([](SystemBuilder& b) {
    mig::AdmissionSpec spec;
    spec.enabled = true;
    spec.margin = 1e9;  // veto everything except relief demotions
    b.admission(spec);
    b.provenance(true);
  });
  sys->run_epochs(24);
  const obs::ProvenanceLedger& ledger = sys->provenance();
  ASSERT_GT(sys->admission_controller()->vetoed(), 0u);

  // BEFORE finalize(): every veto already carries its linked outcome —
  // the migrator finalizes the record at veto time, so vetoed decisions
  // never sit in the pending set alongside still-queued requests.
  std::uint64_t vetoed_rows = 0;
  for (std::size_t i = 0; i < ledger.decisions(); ++i) {
    const obs::DecisionRow row = ledger.decision(i);
    if (row.status != obs::DecisionStatus::kVetoed) continue;
    ++vetoed_rows;
    EXPECT_EQ(row.pages_moved, 0u);
    EXPECT_TRUE(row.abort_reason == obs::MigAbortReason::kVetoBenefit ||
                row.abort_reason == obs::MigAbortReason::kVetoCost ||
                row.abort_reason == obs::MigAbortReason::kVetoPressure)
        << "vetoed row " << row.id << " carries non-veto reason";
  }
  EXPECT_GT(vetoed_rows, 0u);

  sys->provenance().finalize();
  EXPECT_EQ(sys->provenance().pending(), 0u);
  std::ostringstream decisions;
  sys->provenance().write_decisions_jsonl(decisions);
  EXPECT_EQ(decisions.str().find("\"status\":\"pending\""), std::string::npos);
}

TEST(AdmissionRuntime, BatteryAblationIsDeterministicAcrossJobs) {
  ScenarioSpec spec = pressured_spec();
  spec.admission_compare = mig::AdmissionSpec{};  // battery forces enabled
  const std::vector<std::string> policies = {"vulcan", "tpp"};

  const auto one = run_policy_battery(spec, policies, /*jobs=*/1);
  const auto two = run_policy_battery(spec, policies, /*jobs=*/2);
  EXPECT_EQ(check::serialize_battery(one), check::serialize_battery(two));

  for (const PolicyRunSummary& s : one) {
    ASSERT_NE(s.admission, nullptr) << s.policy;
    EXPECT_GT(s.admission->admitted + s.admission->vetoed, 0u);
    EXPECT_GT(s.pages_migrated, 0u);
    EXPECT_EQ(s.admission->apps.size(), s.apps.size());
  }
}

TEST(AdmissionRuntime, AblationLeavesBaselineColumnsUntouched) {
  // The with/without columns live in ONE battery: attaching the ablation
  // must not perturb the admission-off fields (they are what the pinned
  // fuzz digests fold).
  const std::vector<std::string> policies = {"vulcan"};
  auto with = run_policy_battery(
      [] {
        ScenarioSpec s = pressured_spec();
        s.admission_compare = mig::AdmissionSpec{};
        return s;
      }(),
      policies, 1);
  const auto without = run_policy_battery(pressured_spec(), policies, 1);

  ASSERT_NE(with[0].admission, nullptr);
  // Strip the ablation column; everything left must be byte-identical.
  with[0].admission.reset();
  EXPECT_EQ(check::serialize_battery(with), check::serialize_battery(without));
}

}  // namespace
}  // namespace vulcan::runtime
