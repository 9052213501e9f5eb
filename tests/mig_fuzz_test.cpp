// Randomised migration fuzzing: arbitrary request streams (promotions,
// demotions, chunks, duplicates, sync/async, shadowing on/off) must never
// violate the physical invariants — no frame leaks, no double ownership,
// census always exact.
#include <gtest/gtest.h>

#include <unordered_set>

#include "mig/migrator.hpp"
#include "vm/mmu.hpp"

namespace vulcan::mig {
namespace {

class MigratorFuzzP
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(MigratorFuzzP, RandomRequestStreamsPreserveInvariants) {
  const auto [seed, shadowing] = GetParam();
  sim::Rng rng(seed);

  std::vector<mem::TierConfig> tiers{{"fast", 1536, 70, 205.0},
                                     {"slow", 8192, 162, 25.0}};
  mem::Topology topo(std::move(tiers));
  vm::AddressSpace::Config cfg;
  cfg.pid = 1;
  cfg.rss_pages = 2048;
  cfg.thp = rng.chance(0.5);
  vm::AddressSpace as(cfg, topo);
  constexpr unsigned kThreads = 4;
  for (unsigned t = 0; t < kThreads; ++t) as.add_thread();

  sim::CostModel cost;
  vm::Mmu mmu(vm::Mmu::Config{.cores = 8});
  vm::ShootdownController ctrl(cost, mmu);
  Migrator::Config mcfg;
  mcfg.process_cores = {0, 1, 2, 3};
  mcfg.shadowing = shadowing;
  mcfg.mechanism.targeted_shootdown = rng.chance(0.5);
  mcfg.async_max_retries = 1 + static_cast<unsigned>(rng.below(3));
  Migrator m(as, topo, ctrl, cost, mcfg);

  // Fault a random subset of pages into random tiers.
  for (std::uint64_t p = 0; p < cfg.rss_pages; ++p) {
    if (rng.chance(0.8)) {
      as.fault(as.vpn_at(p), static_cast<vm::ThreadId>(rng.below(kThreads)),
               rng.chance(0.3),
               rng.chance(0.4) ? mem::kFastTier : mem::kSlowTier);
    }
  }

  for (int round = 0; round < 40; ++round) {
    // Random batch of requests, including nonsense (unmapped pages,
    // already-resident targets, repeated vpns).
    std::vector<MigrationRequest> reqs;
    const int batch = 1 + static_cast<int>(rng.below(64));
    for (int i = 0; i < batch; ++i) {
      MigrationRequest r;
      r.vpn = as.vpn_at(rng.below(cfg.rss_pages));
      r.to = rng.chance(0.5) ? mem::kFastTier : mem::kSlowTier;
      r.mode = rng.chance(0.5) ? CopyMode::kSync : CopyMode::kAsync;
      r.shared = rng.chance(0.5);
      r.owner = static_cast<vm::ThreadId>(rng.below(kThreads));
      r.write_intensive = rng.chance(0.3);
      r.whole_chunk = rng.chance(0.1);
      reqs.push_back(r);
    }
    m.execute(reqs, rng);

    // Random concurrent app activity: accesses, writes, new faults.
    for (int i = 0; i < 64; ++i) {
      const vm::Vpn vpn = as.vpn_at(rng.below(cfg.rss_pages));
      if (!as.mapped(vpn)) {
        as.fault(vpn, static_cast<vm::ThreadId>(rng.below(kThreads)),
                 rng.chance(0.3),
                 rng.chance(0.5) ? mem::kFastTier : mem::kSlowTier);
      } else {
        const bool write = rng.chance(0.3);
        as.access(vpn, static_cast<vm::ThreadId>(rng.below(kThreads)),
                  write);
        if (write) m.on_write(vpn);
      }
    }

    // --- Invariants ------------------------------------------------------
    // 1. Frame conservation: allocator usage == mapped census (+ shadows).
    std::uint64_t census[2] = {0, 0};
    std::unordered_set<mem::Pfn> live_pfns;
    as.tables().process_table().visit([&](vm::Vpn, vm::Pte pte) {
      ++census[mem::tier_of(pte.pfn())];
      ASSERT_TRUE(live_pfns.insert(pte.pfn()).second)
          << "two vpns share one frame";
    });
    ASSERT_EQ(topo.allocator(mem::kFastTier).used(), census[0]);
    ASSERT_EQ(topo.allocator(mem::kSlowTier).used(),
              census[1] + m.shadows().size());
    ASSERT_EQ(as.pages_in_tier(mem::kFastTier), census[0]);
    ASSERT_EQ(as.pages_in_tier(mem::kSlowTier), census[1]);

    // 2. Shadows never alias a live mapping's frame.
    as.tables().process_table().visit([&](vm::Vpn vpn, vm::Pte pte) {
      if (const auto shadow = m.shadows().peek(vpn)) {
        ASSERT_NE(*shadow, pte.pfn());
        ASSERT_EQ(mem::tier_of(*shadow), mem::kSlowTier);
      }
    });

    // 3. Huge chunks never straddle tiers.
    for (std::uint64_t c = 0; c * sim::kPagesPerHuge < cfg.rss_pages; ++c) {
      const vm::Vpn base = as.vpn_at(c * sim::kPagesPerHuge);
      if (!as.is_huge(base)) continue;
      const auto tier = mem::tier_of(as.tables().get(base).pfn());
      for (std::uint64_t i = 1; i < sim::kPagesPerHuge; ++i) {
        ASSERT_EQ(mem::tier_of(as.tables().get(base + i).pfn()), tier)
            << "huge chunk " << c << " straddles tiers";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, MigratorFuzzP,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 1234u, 9999u),
                       ::testing::Bool()));

}  // namespace
}  // namespace vulcan::mig
