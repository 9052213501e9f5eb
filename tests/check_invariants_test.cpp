// InvariantAuditor self-tests: clean systems audit green at every level,
// and seeded faults (corrupt PTE, leaked frame, stale TLB entry) are each
// caught by the right rule — proving the oracle detects what it claims to.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "mem/topology.hpp"
#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "wl/apps.hpp"

namespace vulcan::check {
namespace {

runtime::TieredSystem make_system(const char* policy_name,
                                  AuditLevel level = AuditLevel::kFull,
                                  bool audit_throw = true) {
  runtime::TieredSystem::Config cfg;
  cfg.samples_per_epoch = 3000;
  cfg.seed = 7;
  cfg.audit = level;
  cfg.audit_throw = audit_throw;
  return runtime::TieredSystem(cfg, runtime::make_policy(policy_name));
}

void add_churny_workloads(runtime::TieredSystem& sys) {
  for (int w = 0; w < 2; ++w) {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 6'144;
    p.wss_pages = 3'072;
    p.write_ratio = 0.25;
    p.drift_pages_per_sec = 400;
    p.seed = 21 + w;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  }
}

bool has_rule(const AuditReport& report, AuditRule rule) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [rule](const Violation& v) { return v.rule == rule; });
}

class CleanAuditP : public ::testing::TestWithParam<const char*> {};

// Every policy's churn must audit green at kFull, every epoch (the audit
// throws on violation, so simply completing the run is the assertion).
TEST_P(CleanAuditP, FullAuditStaysGreenUnderChurn) {
  runtime::TieredSystem sys = make_system(GetParam());
  add_churny_workloads(sys);
  sys.prefault(0);
  sys.prefault(1);
  ASSERT_NO_THROW(sys.run_epochs(8));
  EXPECT_TRUE(sys.last_audit().ok());
  EXPECT_GT(sys.last_audit().checks, 0u);
  EXPECT_EQ(sys.last_audit().epoch, 8u);
}

INSTANTIATE_TEST_SUITE_P(Policies, CleanAuditP,
                         ::testing::ValuesIn([] {
                           std::vector<const char*> names;
                           for (const std::string& n :
                                runtime::all_policy_names()) {
                             names.push_back(n.c_str());
                           }
                           return names;
                         }()));

TEST(AuditorFaultInjection, CorruptPteIsCaughtAsFreedFrame) {
  runtime::TieredSystem sys =
      make_system("vulcan", AuditLevel::kBasic, /*audit_throw=*/false);
  add_churny_workloads(sys);
  sys.run_epochs(2);
  ASSERT_TRUE(sys.last_audit().ok());

  // Redirect a live PTE at a frame the allocator holds free: grab a frame
  // from the same tier (so the census stays balanced), release it, and
  // point the mapping at it.
  vm::AddressSpace& as = sys.address_space(0);
  const vm::Vpn vpn = as.vpn_at(0);
  ASSERT_TRUE(as.mapped(vpn));
  const vm::Pte pte = as.tables().get(vpn);
  mem::FrameAllocator& alloc =
      sys.topology().allocator(mem::tier_of(pte.pfn()));
  const auto bogus = alloc.allocate();
  ASSERT_TRUE(bogus.has_value());
  alloc.free(*bogus);
  as.tables().set(vpn, pte.with_pfn(*bogus));

  const AuditReport& report = sys.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, AuditRule::kFreedFrame))
      << format_report(report);

  // Point the mapping back at its own frame: teardown frees every mapped
  // frame, and the bogus one is already free.
  as.tables().set(vpn, pte);
}

TEST(AuditorFaultInjection, LeakedFrameIsCaughtAsConservationBreak) {
  runtime::TieredSystem sys =
      make_system("vulcan", AuditLevel::kBasic, /*audit_throw=*/false);
  add_churny_workloads(sys);
  sys.run_epochs(2);
  ASSERT_TRUE(sys.last_audit().ok());

  // Allocate a frame nothing will ever map: used() rises with no matching
  // mapping or shadow.
  ASSERT_TRUE(sys.topology().allocator(mem::kFastTier).allocate().has_value());

  const AuditReport& report = sys.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, AuditRule::kFrameConservation))
      << format_report(report);
}

TEST(AuditorFaultInjection, StaleTlbEntryIsCaughtAsMissedShootdown) {
  runtime::TieredSystem sys =
      make_system("vulcan", AuditLevel::kBasic, /*audit_throw=*/false);
  add_churny_workloads(sys);
  sys.run_epochs(2);
  ASSERT_TRUE(sys.last_audit().ok());

  // A 4 KB entry whose cached translation disagrees with the live PTE is
  // exactly what a missed shootdown leaves behind.
  vm::AddressSpace& as = sys.address_space(0);
  const vm::Vpn vpn = as.vpn_at(0);
  ASSERT_TRUE(as.mapped(vpn));
  const mem::Pfn wrong = as.tables().get(vpn).pfn() + 1;
  sys.mmu().tlbs()[0].insert(as.pid(), vpn, wrong);

  const AuditReport& report = sys.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, AuditRule::kTlbTranslation))
      << format_report(report);
}

TEST(AuditorFaultInjection, HugeEntryForSplitChunkIsCaught) {
  runtime::TieredSystem sys =
      make_system("vulcan", AuditLevel::kBasic, /*audit_throw=*/false);
  add_churny_workloads(sys);
  sys.run_epochs(1);
  ASSERT_TRUE(sys.last_audit().ok());

  // Force the chunk into base pages, then cache a 2 MB entry over it —
  // the stale coverage a missed split-time shootdown would leave behind.
  vm::AddressSpace& as = sys.address_space(0);
  const vm::Vpn vpn = as.vpn_at(0);
  ASSERT_TRUE(as.mapped(vpn));
  as.split_chunk(vpn);
  ASSERT_FALSE(as.is_huge(vpn));
  sys.mmu().tlbs()[0].insert_huge(as.pid(), vpn, as.tables().get(vpn).pfn());

  const AuditReport& report = sys.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, AuditRule::kTlbHugeCoverage))
      << format_report(report);
}

TEST(AuditorFaultInjection, RunEpochsThrowsAuditFailure) {
  runtime::TieredSystem sys = make_system("vulcan", AuditLevel::kBasic);
  add_churny_workloads(sys);
  sys.run_epochs(1);
  ASSERT_TRUE(sys.topology().allocator(mem::kFastTier).allocate().has_value());
  try {
    sys.run_epochs(1);
    FAIL() << "leaked frame must fail the epoch-boundary audit";
  } catch (const AuditFailure& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_TRUE(has_rule(e.report(), AuditRule::kFrameConservation));
    EXPECT_NE(std::string(e.what()).find("audit"), std::string::npos);
  }
}

TEST(AuditorFaultInjection, AuditOffSkipsEpochBoundaryChecks) {
  runtime::TieredSystem sys =
      make_system("vulcan", AuditLevel::kOff, /*audit_throw=*/false);
  add_churny_workloads(sys);
  sys.run_epochs(1);
  ASSERT_TRUE(sys.topology().allocator(mem::kFastTier).allocate().has_value());
  // The corruption goes unnoticed at epoch boundaries...
  ASSERT_NO_THROW(sys.run_epochs(2));
  EXPECT_EQ(sys.last_audit().checks, 0u);
  // ...but an explicit audit (which escalates to kFull when off) sees it.
  const AuditReport& report = sys.run_audit();
  EXPECT_TRUE(has_rule(report, AuditRule::kFrameConservation));
}

TEST(Auditor, EmptyViewAuditsVacuouslyGreen) {
  const InvariantAuditor auditor(AuditLevel::kFull);
  const AuditReport report = auditor.audit(SystemView{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checks, 0u);
}

TEST(Auditor, NamesRoundTrip) {
  EXPECT_STREQ(audit_rule_name(AuditRule::kFreedFrame), "freed_frame");
  EXPECT_STREQ(audit_level_name(AuditLevel::kFull), "full");
  EXPECT_EQ(parse_audit_level("basic"), AuditLevel::kBasic);
  EXPECT_EQ(parse_audit_level("off"), AuditLevel::kOff);
  EXPECT_EQ(parse_audit_level("full"), AuditLevel::kFull);
  EXPECT_EQ(parse_audit_level("bogus"), std::nullopt);
}

}  // namespace
}  // namespace vulcan::check
