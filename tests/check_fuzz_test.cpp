// Differential fuzz oracle tests: a small campaign passes end-to-end
// (audits green, artefacts byte-identical across job counts), the digest
// is reproducible for a fixed seed, and option edge cases behave.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>

#include "obs/flightrec.hpp"
#include "runtime/experiment.hpp"

namespace vulcan::check {
namespace {

FuzzOptions small_options() {
  FuzzOptions options;
  options.seed = 17;
  options.scenarios = 1;
  options.jobs = {1, 2};
  options.policies = {"vulcan", "tpp"};
  options.seconds = 1.0;
  options.level = AuditLevel::kFull;
  return options;
}

TEST(DifferentialFuzz, SmallCampaignPassesAndAudits) {
  const FuzzResult result = run_differential_fuzz(small_options());
  for (const FuzzFailure& f : result.failures) {
    ADD_FAILURE() << f.scenario << ": " << f.what;
  }
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.scenarios, 1u);
  // policies x (jobs levels + 4 hot-path variants + the disabled/enabled
  // admission replay pair — scenario 0 is a "every third" scenario).
  EXPECT_EQ(result.runs, 16u);
  EXPECT_GT(result.audits_passed, 0u);
  EXPECT_FALSE(result.artefact_digest.empty());
}

TEST(DifferentialFuzz, VaryHotpathOffSkipsTheVariantRuns) {
  FuzzOptions options = small_options();
  options.vary_hotpath = false;
  const FuzzResult result = run_differential_fuzz(options);
  ASSERT_TRUE(result.ok);
  // policies x jobs levels, plus the admission replay pair.
  EXPECT_EQ(result.runs, 8u);
  // The digest folds only the reference artefacts, so the variants never
  // shift it: both modes must agree.
  FuzzOptions with = small_options();
  EXPECT_EQ(result.artefact_digest,
            run_differential_fuzz(with).artefact_digest);
}

TEST(DifferentialFuzz, VaryAdmissionOffSkipsTheReplayPair) {
  FuzzOptions options = small_options();
  options.vary_admission = false;
  const FuzzResult result = run_differential_fuzz(options);
  ASSERT_TRUE(result.ok);
  // policies x (jobs levels + 4 hot-path variants) only.
  EXPECT_EQ(result.runs, 12u);
  // Admission replays are digest-neutral by construction: turning them
  // off must not move the pinned digest either.
  FuzzOptions with = small_options();
  EXPECT_EQ(result.artefact_digest,
            run_differential_fuzz(with).artefact_digest);
}

TEST(DifferentialFuzz, DigestIsReproducibleForFixedSeed) {
  const FuzzOptions options = small_options();
  const FuzzResult a = run_differential_fuzz(options);
  const FuzzResult b = run_differential_fuzz(options);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.artefact_digest, b.artefact_digest);
}

TEST(DifferentialFuzz, DifferentSeedsChangeTheDigest) {
  FuzzOptions a = small_options();
  FuzzOptions b = small_options();
  b.seed = 18;
  const FuzzResult ra = run_differential_fuzz(a);
  const FuzzResult rb = run_differential_fuzz(b);
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_NE(ra.artefact_digest, rb.artefact_digest);
}

TEST(DifferentialFuzz, AuditOffDisablesTheOracleHalf) {
  FuzzOptions options = small_options();
  options.jobs = {1};
  options.level = AuditLevel::kOff;
  const FuzzResult result = run_differential_fuzz(options);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.audits_passed, 0u);
}

TEST(DifferentialFuzz, ZeroScenariosIsNotASuccess) {
  FuzzOptions options = small_options();
  options.scenarios = 0;
  const FuzzResult result = run_differential_fuzz(options);
  EXPECT_FALSE(result.ok);
}

TEST(DifferentialFuzz, FailingScenarioLeavesAFlightDump) {
  // The unknown roster entry fails the scenario. The forensic replay skips
  // the entry that does not build and, with no audit throw to fire the
  // auto dump, dumps the reference policy's box on demand.
  FuzzOptions options = small_options();
  options.jobs = {1};
  options.policies = {"vulcan", "no-such-policy"};
  options.vary_hotpath = false;
  options.vary_admission = false;
  options.flight_dir = ::testing::TempDir();
  const FuzzResult result = run_differential_fuzz(options);
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.flight_dumps.size(), 1u);
  std::ifstream in(result.flight_dumps[0]);
  const std::optional<obs::FlightDump> dump = obs::FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value()) << result.flight_dumps[0];
  EXPECT_EQ(dump->reason, "fuzz_failure");
}

TEST(SerializeBattery, EmptyInputYieldsEmptyBytes) {
  EXPECT_TRUE(serialize_battery({}).empty());
}

}  // namespace
}  // namespace vulcan::check
