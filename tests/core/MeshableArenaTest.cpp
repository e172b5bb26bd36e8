//===- MeshableArenaTest.cpp - Span manager tests -------------------------===//

#include "core/MeshableArena.h"

#include "core/MiniHeap.h"

#include <gtest/gtest.h>

#include <cstring>

namespace mesh {
namespace {

constexpr size_t kArenaBytes = 256 * 1024 * 1024;
constexpr int kLarge = MeshableArena::kLargeArenaShard;
constexpr size_t kSmallDirtyBudget = 16 * kPageSize;

TEST(MeshableArenaTest, FreshSpansComeFromBumpFrontier) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t S0 = A.allocSpan(kLarge, 1, &Clean);
  EXPECT_TRUE(Clean);
  const uint32_t S1 = A.allocSpan(kLarge, 1, &Clean);
  EXPECT_NE(S0, S1);
  EXPECT_EQ(A.committedPages(), 2u);
  EXPECT_EQ(A.frontierPages(), 2u);
}

TEST(MeshableArenaTest, DirtySpanReusedFirst) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t S0 = A.allocSpan(kLarge, 2, &Clean);
  memset(A.arenaBase() + pagesToBytes(S0), 0x77, pagesToBytes(2));
  A.freeDirtySpan(kLarge, S0, 2);
  EXPECT_EQ(A.dirtyPages(), 2u);
  const uint32_t S1 = A.allocSpan(kLarge, 2, &Clean);
  EXPECT_EQ(S1, S0) << "dirty spans are preferred for reuse";
  EXPECT_FALSE(Clean) << "reused dirty spans keep stale bytes";
  EXPECT_EQ(A.dirtyPages(), 0u);
  // Stale contents really are there (malloc semantics, not calloc).
  EXPECT_EQ(A.arenaBase()[pagesToBytes(S1)], 0x77);
}

TEST(MeshableArenaTest, DirtyBudgetTriggersFlush) {
  MeshableArena A(kArenaBytes, kSmallDirtyBudget);
  bool Clean = false;
  uint32_t Spans[20];
  for (auto &S : Spans) {
    S = A.allocSpan(kLarge, 1, &Clean);
    memset(A.arenaBase() + pagesToBytes(S), 1, kPageSize);
  }
  ASSERT_EQ(A.committedPages(), 20u);
  // Freeing up to the budget keeps pages dirty...
  for (int I = 0; I < 16; ++I)
    A.freeDirtySpan(kLarge, Spans[I], 1);
  EXPECT_EQ(A.dirtyPages(), 16u);
  EXPECT_EQ(A.committedPages(), 20u);
  // ...one more crosses it and everything dirty is punched.
  A.freeDirtySpan(kLarge, Spans[16], 1);
  EXPECT_EQ(A.dirtyPages(), 0u);
  EXPECT_EQ(A.committedPages(), 3u);
  EXPECT_EQ(A.vm().kernelFilePages(), 3u) << "kernel agrees after flush";
}

TEST(MeshableArenaTest, ReleasedSpanIsCleanOnReuse) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t S = A.allocSpan(kLarge, 4, &Clean);
  memset(A.arenaBase() + pagesToBytes(S), 0x42, pagesToBytes(4));
  A.freeReleasedSpan(kLarge, S, 4);
  EXPECT_EQ(A.committedPages(), 0u);
  const uint32_t S2 = A.allocSpan(kLarge, 4, &Clean);
  EXPECT_EQ(S2, S);
  EXPECT_TRUE(Clean);
  for (size_t I = 0; I < pagesToBytes(4); ++I)
    ASSERT_EQ(A.arenaBase()[pagesToBytes(S2) + I], 0);
}

TEST(MeshableArenaTest, OddLengthSpansExactFitReuse) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t S = A.allocSpan(kLarge, 5, &Clean); // odd length: large object
  A.freeReleasedSpan(kLarge, S, 5);
  const uint32_t S2 = A.allocSpan(kLarge, 5, &Clean);
  EXPECT_EQ(S2, S);
  const uint32_t S3 = A.allocSpan(kLarge, 3, &Clean);
  EXPECT_NE(S3, S) << "no splitting of recycled odd spans";
}

TEST(MeshableArenaTest, PageTableOwnership) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t S = A.allocSpan(kLarge, 2, &Clean);
  MiniHeap MH(S, 2, 1024, 8, 19, true);
  A.setOwner(S, 2, &MH);
  char *P = A.arenaBase() + pagesToBytes(S);
  EXPECT_EQ(A.ownerOf(P), &MH);
  EXPECT_EQ(A.ownerOf(P + kPageSize + 5), &MH);
  EXPECT_EQ(A.ownerOf(P + 2 * kPageSize), nullptr);
  int Stack;
  EXPECT_EQ(A.ownerOf(&Stack), nullptr) << "non-arena pointers have no owner";
  A.setOwner(S, 2, nullptr);
  EXPECT_EQ(A.ownerOf(P), nullptr);
}

TEST(MeshableArenaTest, AliasSpanRecycling) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  bool Clean = false;
  const uint32_t Keeper = A.allocSpan(kLarge, 1, &Clean);
  const uint32_t Victim = A.allocSpan(kLarge, 1, &Clean);
  char *KeeperPtr = A.arenaBase() + pagesToBytes(Keeper);
  char *VictimPtr = A.arenaBase() + pagesToBytes(Victim);
  strcpy(KeeperPtr, "keeper");
  strcpy(VictimPtr, "victim");
  // Mesh: remap victim onto keeper, release victim's physical pages.
  ASSERT_TRUE(A.vm().alias(Victim, Keeper, 1));
  ASSERT_TRUE(A.vm().release(Victim, 1));
  EXPECT_STREQ(VictimPtr, "keeper");
  EXPECT_EQ(A.committedPages(), 1u);
  // Later the merged MiniHeap dies; the alias span is recycled clean.
  // The shard index mirrors the owning size class; any shard gives the
  // same recycling behavior, so class 0 stands in here.
  A.freeAliasSpan(/*Class=*/0, Victim, 1);
  const uint32_t Fresh = A.allocSpan(kLarge, 1, &Clean);
  EXPECT_EQ(Fresh, Victim);
  EXPECT_TRUE(Clean);
  EXPECT_EQ(VictimPtr[0], 0) << "recycled alias span reads zero";
  strcpy(VictimPtr, "fresh");
  EXPECT_STREQ(KeeperPtr, "keeper") << "identity restored: no aliasing";
}

TEST(MeshableArenaTest, CommittedMatchesKernelAfterChurn) {
  MeshableArena A(kArenaBytes, kSmallDirtyBudget);
  bool Clean = false;
  uint32_t Spans[64];
  for (auto &S : Spans) {
    S = A.allocSpan(kLarge, 1, &Clean);
    A.arenaBase()[pagesToBytes(S)] = 1; // touch
  }
  for (int I = 0; I < 64; I += 2)
    A.freeDirtySpan(kLarge, Spans[I], 1);
  A.flushDirty();
  EXPECT_EQ(A.committedPages(), 32u);
  EXPECT_EQ(A.vm().kernelFilePages(), 32u);
}

} // namespace
} // namespace mesh
