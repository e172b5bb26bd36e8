//===- ArenaPropertyTest.cpp - Span-manager accounting properties ----------===//
///
/// Differential test of MeshableArena against a reference model: after
/// any random sequence of span allocations and frees, the arena's
/// committed-page accounting must equal the model's, and — after
/// flushing dirty pages — the kernel's file-block count must agree
/// exactly with both.
///
//===----------------------------------------------------------------------===//

#include "core/MeshableArena.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

namespace mesh {
namespace {

constexpr int kLarge = MeshableArena::kLargeArenaShard;

struct LiveSpan {
  uint32_t Off;
  uint32_t Pages;
};

class ArenaProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArenaProperty, AccountingMatchesModelAndKernel) {
  MeshableArena Arena(256 * 1024 * 1024, /*MaxDirtyBytes=*/64 * kPageSize);
  Rng Driver(GetParam());
  std::vector<LiveSpan> Live;
  size_t ModelLivePages = 0;

  const uint32_t Lengths[] = {1, 2, 4, 8, 16, 32, 5, 11};
  for (int Step = 0; Step < 4000; ++Step) {
    const bool DoAlloc = Live.empty() || Driver.withProbability(0.55);
    if (DoAlloc) {
      const uint32_t Pages = Lengths[Driver.inRange(0, 7)];
      bool Clean = false;
      const uint32_t Off = Arena.allocSpan(kLarge, Pages, &Clean);
      // Touch every page so kernel blocks match our commit accounting.
      memset(Arena.arenaBase() + pagesToBytes(Off), 0x5A,
             pagesToBytes(Pages));
      if (Clean) {
        // Clean spans must read zero before the touch; verify on the
        // next allocation instead (cheap spot check): here just track.
      }
      Live.push_back(LiveSpan{Off, Pages});
      ModelLivePages += Pages;
    } else {
      const size_t Idx = Driver.inRange(0, Live.size() - 1);
      const LiveSpan S = Live[Idx];
      Live[Idx] = Live.back();
      Live.pop_back();
      ModelLivePages -= S.Pages;
      if (Driver.withProbability(0.5))
        Arena.freeDirtySpan(kLarge, S.Off, S.Pages);
      else
        Arena.freeReleasedSpan(kLarge, S.Off, S.Pages);
    }
    // Invariant: committed = live + dirty-cached.
    ASSERT_EQ(Arena.committedPages(), ModelLivePages + Arena.dirtyPages())
        << "step " << Step;
  }

  Arena.flushDirty();
  EXPECT_EQ(Arena.committedPages(), ModelLivePages);
  EXPECT_EQ(Arena.vm().kernelFilePages(), ModelLivePages)
      << "kernel ground truth must agree after the flush";

  for (const LiveSpan &S : Live)
    Arena.freeReleasedSpan(kLarge, S.Off, S.Pages);
  EXPECT_EQ(Arena.committedPages(), 0u);
  EXPECT_EQ(Arena.vm().kernelFilePages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ArenaPropertyTest, CleanSpansAlwaysReadZero) {
  MeshableArena Arena(64 * 1024 * 1024, 0);
  Rng Driver(77);
  for (int Round = 0; Round < 200; ++Round) {
    bool Clean = false;
    const uint32_t Pages = 1u << Driver.inRange(0, 4);
    const uint32_t Off = Arena.allocSpan(kLarge, Pages, &Clean);
    char *P = Arena.arenaBase() + pagesToBytes(Off);
    if (Clean) {
      for (size_t I = 0; I < pagesToBytes(Pages); I += 509)
        ASSERT_EQ(P[I], 0) << "clean span has stale bytes";
    }
    memset(P, 0xEE, pagesToBytes(Pages));
    // Punched: must be zero on reuse.
    Arena.freeReleasedSpan(kLarge, Off, Pages);
  }
}

} // namespace
} // namespace mesh
