// Figure 3: contribution of TLB operations vs page copying to batched
// migration time across page counts and thread counts.
//
// Paper anchors: with few pages, copying dominates; TLB coherence grows
// with both pages and threads, reaching ~65% of migration time at
// 32 threads x 512 pages.
//
// Each cell is the phases of mig::chunk_move(), the composition the
// migrator charges for a batched whole-chunk move.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

int main() {
  bench::header("Fig. 3 — TLB vs copy share of batched migration time",
                "paper §2.2 Observation #3 (Fig. 3)");

  sim::CostModel cost;
  bench::CsvSink csv("fig3_tlb_vs_copy",
                     "pages,threads,tlb_cycles,copy_cycles,other_cycles,"
                     "tlb_share,copy_share");

  std::printf("%7s | ", "pages");
  for (unsigned threads : {2u, 8u, 16u, 32u}) {
    std::printf("  t=%-2u tlb%%/copy%%  |", threads);
  }
  std::printf("\n");
  for (std::uint64_t pages : {2ull, 8ull, 32ull, 128ull, 256ull, 512ull}) {
    std::printf("%7llu | ", (unsigned long long)pages);
    for (unsigned threads : {2u, 8u, 16u, 32u}) {
      // Steady-state batched regime (overlapped flush IPIs): all `threads`
      // threads touch the batch, so flushes reach threads-1 remote cores.
      const mig::PhaseBreakdown b =
          mig::chunk_move(cost, pages, threads - 1, mig::CopyKind::kCpu);
      const auto tlb_c = b.shootdown;
      const auto copy_c = b.copy;
      const auto other_c = b.unmap + b.remap;
      const double total = static_cast<double>(b.total());
      const double tlb = static_cast<double>(tlb_c) / total;
      const double copy = static_cast<double>(copy_c) / total;
      std::printf("   %5.1f / %5.1f   |", 100 * tlb, 100 * copy);
      csv.row("%llu,%u,%llu,%llu,%llu,%.4f,%.4f", (unsigned long long)pages,
              threads, (unsigned long long)tlb_c, (unsigned long long)copy_c,
              (unsigned long long)other_c, tlb, copy);
    }
    std::printf("\n");
  }

  std::printf(
      "\n(shares exclude the preparation phase, as the paper's microbench\n"
      "isolates the remap path). paper anchor: TLB ~65%% at 32t x 512p;\n"
      "copy dominates small batches.\n");
  return 0;
}
