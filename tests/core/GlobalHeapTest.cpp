//===- GlobalHeapTest.cpp - Global heap unit tests -------------------------===//

#include "core/GlobalHeap.h"

#include "TestConfig.h"
#include "core/ShuffleVector.h"
#include "support/Epoch.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

namespace mesh {
namespace {

TEST(GlobalHeapTest, FreshMiniHeapHasClassGeometry) {
  GlobalHeap G(testOptions());
  MiniHeap *MH = G.allocMiniHeapForClass(0);
  ASSERT_NE(MH, nullptr);
  EXPECT_TRUE(MH->isAttached());
  EXPECT_EQ(MH->objectSize(), 16u);
  EXPECT_EQ(MH->objectCount(), 256u);
  {
    Epoch::Section Guard(G.miniheapEpoch());
    EXPECT_EQ(G.miniheapFor(G.arenaBase() +
                            pagesToBytes(MH->physicalSpanOffset())),
              MH);
  }
  G.releaseMiniHeap(MH);
}

TEST(GlobalHeapTest, ReleaseEmptyMiniHeapFreesSpan) {
  GlobalHeap G(testOptions());
  MiniHeap *MH = G.allocMiniHeapForClass(0);
  const size_t Before = G.committedBytes();
  EXPECT_GT(Before, 0u);
  G.releaseMiniHeap(MH); // empty: destroyed, span released
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(GlobalHeapTest, PartialMiniHeapIsBinnedAndReused) {
  GlobalHeap G(testOptions());
  MiniHeap *MH = G.allocMiniHeapForClass(3);
  MH->bitmap().tryToSet(7); // one live object
  G.releaseMiniHeap(MH);
  EXPECT_EQ(G.binnedCount(3), 1u);
  MiniHeap *Again = G.allocMiniHeapForClass(3);
  EXPECT_EQ(Again, MH) << "partial span must be reused before a fresh one";
  EXPECT_EQ(G.binnedCount(3), 0u);
  MH->bitmap().unset(7);
  G.releaseMiniHeap(MH);
}

TEST(GlobalHeapTest, FullestBinPreferred) {
  GlobalHeap G(testOptions());
  // Low-occupancy span.
  MiniHeap *Low = G.allocMiniHeapForClass(0);
  Low->bitmap().tryToSet(0);
  G.releaseMiniHeap(Low);
  // High-occupancy span.
  MiniHeap *High = G.allocMiniHeapForClass(0);
  for (uint32_t I = 0; I < 250; ++I)
    High->bitmap().tryToSet(I);
  G.releaseMiniHeap(High);
  EXPECT_EQ(G.allocMiniHeapForClass(0), High)
      << "global heap scans bins by decreasing occupancy (Section 3.1)";
}

TEST(GlobalHeapTest, LargeAllocRoundTrip) {
  GlobalHeap G(testOptions());
  void *P = G.largeAlloc(100 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % kPageSize, 0u)
      << "large objects are page-aligned";
  memset(P, 0xCD, 100 * 1024);
  EXPECT_EQ(G.usableSize(P), bytesToPages(100 * 1024) * kPageSize)
      << "usable size rounds to whole pages";
  G.free(P);
  EXPECT_EQ(G.committedBytes(), 0u)
      << "large-object pages are freed directly to the OS";
}

TEST(GlobalHeapTest, LargeAllocZeroedReportsSpanCleanliness) {
  // The calloc zero-skip hook: pristine spans (frontier, or punched
  // holes) report zeroed; spans recycled through the dirty bins do not.
  MeshOptions Opts = testOptions();
  Opts.MaxDirtyBytes = 64 * 1024 * 1024; // Keep freed spans dirty.
  GlobalHeap G(Opts);

  bool Zeroed = false;
  void *A = G.largeAllocZeroed(100 * 1024, &Zeroed);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(Zeroed) << "frontier span is demand-zero";

  // Retire a dirtied meshable span (2048-byte class: 4-page spans) to
  // the dirty bins.
  int Class = -1;
  ASSERT_TRUE(sizeClassForSize(2048, &Class));
  MiniHeap *MH = G.allocMiniHeapForClass(Class);
  ASSERT_EQ(MH->spanPages(), 4u);
  char *Span = G.arenaBase() + pagesToBytes(MH->physicalSpanOffset());
  memset(Span, 0xEE, pagesToBytes(MH->spanPages()));
  G.releaseMiniHeap(MH); // Empty: destroyed, span cached dirty.

  // Dirty spans are class-local (arena shard per size class): a 16 KiB
  // large allocation also needs a 4-page span, but it must NOT poach
  // the class's dirty span — it draws from the shared clean reserve /
  // frontier and stays demand-zero.
  void *B = G.largeAllocZeroed(16 * 1024, &Zeroed);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(B, Span) << "dirty spans never cross size-class shards";
  EXPECT_TRUE(Zeroed) << "clean-reserve span is demand-zero";

  // The class itself reuses its dirty span — the recycling the shard
  // exists for — and the stale bytes prove no punch happened.
  MiniHeap *MH2 = G.allocMiniHeapForClass(Class);
  ASSERT_NE(MH2, nullptr);
  EXPECT_EQ(G.arenaBase() + pagesToBytes(MH2->physicalSpanOffset()), Span)
      << "class-local dirty reuse";
  EXPECT_EQ(Span[0], static_cast<char>(0xEE)) << "span kept its stale bytes";
  G.releaseMiniHeap(MH2);
  G.free(A);
  G.free(B);
}

TEST(GlobalHeapTest, FreeOfDetachedObjectRebins) {
  GlobalHeap G(testOptions());
  MiniHeap *MH = G.allocMiniHeapForClass(0);
  // Simulate two allocations through a shuffle vector.
  Rng R(1);
  ShuffleVector V;
  V.init(&R, true);
  V.attach(MH, G.arenaBase());
  void *A = V.malloc();
  void *B = V.malloc();
  V.detach();
  G.releaseMiniHeap(MH);
  ASSERT_EQ(MH->inUseCount(), 2u);

  G.free(A);
  EXPECT_EQ(MH->inUseCount(), 1u);
  EXPECT_EQ(G.binnedCount(0), 1u);
  G.free(B); // empty now: destroyed
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(GlobalHeapTest, InvalidFreesAreDiscarded) {
  GlobalHeap G(testOptions());
  // Paper Section 4.4.4: invalid frees are "easily discovered and
  // discarded". None of these may crash or corrupt state.
  int Stack = 0;
  G.free(&Stack);                 // outside the arena
  G.free(G.arenaBase() + 12345);  // inside arena, unallocated page
  void *P = G.largeAlloc(50000);
  G.free(static_cast<char *>(P) + 1); // interior pointer
  G.free(P);
  G.free(P); // double free of a stale pointer
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(GlobalHeapTest, DoubleFreeOfSmallObjectDetected) {
  GlobalHeap G(testOptions());
  MiniHeap *MH = G.allocMiniHeapForClass(0);
  Rng R(1);
  ShuffleVector V;
  V.init(&R, true);
  V.attach(MH, G.arenaBase());
  void *A = V.malloc();
  void *B = V.malloc();
  V.detach();
  G.releaseMiniHeap(MH);
  G.free(A);
  G.free(A); // double free: must be discarded, not corrupt the bin
  EXPECT_EQ(MH->inUseCount(), 1u);
  G.free(B);
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(GlobalHeapTest, UsableSizeForUnknownPointerIsZero) {
  GlobalHeap G(testOptions());
  int Stack;
  EXPECT_EQ(G.usableSize(&Stack), 0u);
  EXPECT_EQ(G.usableSize(nullptr), 0u);
}

TEST(GlobalHeapTest, MeshNowConsolidatesComplementarySpans) {
  GlobalHeap G(testOptions());
  // Build two half-full spans with complementary offsets by driving
  // the bitmaps directly.
  MiniHeap *A = G.allocMiniHeapForClass(0);
  MiniHeap *B = G.allocMiniHeapForClass(0);
  char *Base = G.arenaBase();
  for (uint32_t I = 0; I < 128; ++I) {
    A->bitmap().tryToSet(I);        // low half
    B->bitmap().tryToSet(128 + I);  // high half
  }
  // Write recognizable contents through the virtual spans.
  char *ASpan = Base + pagesToBytes(A->physicalSpanOffset());
  char *BSpan = Base + pagesToBytes(B->physicalSpanOffset());
  for (uint32_t I = 0; I < 128; ++I) {
    memset(ASpan + I * 16, 'a', 16);
    memset(BSpan + (128 + I) * 16, 'b', 16);
  }
  G.releaseMiniHeap(A);
  G.releaseMiniHeap(B);
  ASSERT_EQ(G.committedBytes(), 2 * kPageSize);

  const size_t Freed = G.meshNow();
  EXPECT_EQ(Freed, kPageSize) << "one physical page released";
  EXPECT_EQ(G.committedBytes(), kPageSize);
  EXPECT_EQ(G.stats().MeshCount.load(), 1u);

  // Virtual addresses are preserved: both spans still show their data.
  for (uint32_t I = 0; I < 128; ++I) {
    ASSERT_EQ(ASpan[I * 16], 'a');
    ASSERT_EQ(BSpan[(128 + I) * 16], 'b');
  }
  // Both virtual spans now resolve to the same (merged) MiniHeap.
  {
    Epoch::Section Guard(G.miniheapEpoch());
    EXPECT_EQ(G.miniheapFor(ASpan), G.miniheapFor(BSpan));
  }
}

TEST(GlobalHeapTest, MeshRateLimitRespected) {
  MeshOptions Opts = testOptions();
  Opts.MeshPeriodMs = 1000 * 1000; // effectively never
  GlobalHeap G(Opts);
  MiniHeap *A = G.allocMiniHeapForClass(0);
  MiniHeap *B = G.allocMiniHeapForClass(0);
  A->bitmap().tryToSet(0);
  B->bitmap().tryToSet(1);
  G.releaseMiniHeap(A);
  G.releaseMiniHeap(B);
  G.maybeMesh();
  EXPECT_EQ(G.stats().meshPasses(), 0u)
      << "rate limiter must suppress meshing";
  EXPECT_EQ(G.meshNow(), kPageSize) << "explicit meshNow bypasses the limit";
}

TEST(GlobalHeapTest, NonMeshableClassesAreSkipped) {
  GlobalHeap G(testOptions());
  // 4096-byte class (index 21) is excluded from meshing (Section 4).
  MiniHeap *A = G.allocMiniHeapForClass(21);
  MiniHeap *B = G.allocMiniHeapForClass(21);
  A->bitmap().tryToSet(0);
  B->bitmap().tryToSet(1);
  G.releaseMiniHeap(A);
  G.releaseMiniHeap(B);
  EXPECT_EQ(G.meshNow(), 0u);
  EXPECT_EQ(G.stats().MeshCount.load(), 0u);
}

TEST(GlobalHeapTest, PeakCommittedTracksHighWater) {
  GlobalHeap G(testOptions());
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(G.largeAlloc(64 * 1024));
  const size_t Peak =
      pagesToBytes(G.stats().PeakCommittedPages.load());
  EXPECT_GE(Peak, size_t{16} * 64 * 1024);
  for (void *P : Ptrs)
    G.free(P);
  EXPECT_EQ(G.committedBytes(), 0u);
  EXPECT_GE(pagesToBytes(G.stats().PeakCommittedPages.load()), Peak)
      << "peak never decreases";
}

} // namespace
} // namespace mesh
