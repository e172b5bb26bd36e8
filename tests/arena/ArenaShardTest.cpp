//===- ArenaShardTest.cpp - Per-class arena shard battery ------------------===//
///
/// Pins the sharded span manager's two load-bearing promises:
///
///  1. Disjointness — span traffic for different size classes acquires
///     different arena shard locks and nothing else's. Measured with
///     the always-compiled per-shard acquisition counters, so the pin
///     holds in every build mode, plus the Debug held-mask probe.
///
///  2. Truthful accounting — the process-wide dirty counter is exactly
///     the sum of the shards' counters at every quiescent point, and
///     committed/kernel-file pages agree with a live-page model through
///     churn, budget trips, and full flushes.
///
//===----------------------------------------------------------------------===//

#include "core/MeshableArena.h"

#include "core/SizeClass.h"
#include "support/LockRank.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace mesh {
namespace {

constexpr size_t kArenaBytes = 256 * 1024 * 1024;

/// A size class whose spans are one page long, skipping \p Skip
/// earlier matches — the storm tests want several distinct classes
/// with identical span geometry so a buggy length-keyed (rather than
/// class-keyed) shard map would alias them.
int onePageClass(int Skip = 0) {
  for (int C = 0; C < kNumSizeClasses; ++C) {
    if (sizeClassInfo(C).SpanPages != 1)
      continue;
    if (Skip-- == 0)
      return C;
  }
  ADD_FAILURE() << "no one-page size class found";
  return 0;
}

TEST(ArenaShardTest, DisjointClassStormsTouchDisjointShardLocks) {
  MeshableArena A(kArenaBytes, /*MaxDirtyBytes=*/size_t{1} << 30);
  const int ClassA = onePageClass(0);
  const int ClassB = onePageClass(2);
  ASSERT_NE(ClassA, ClassB);

  uint64_t Before[MeshableArena::kNumArenaShards];
  for (int S = 0; S < MeshableArena::kNumArenaShards; ++S)
    Before[S] = A.shardLockAcquisitions(S);

  // Two threads, each a refill/free storm confined to its own class.
  // Every op either recycles from the class's dirty list or misses to
  // the shared clean reserve — neither path may touch another class's
  // shard.
  auto Storm = [&A](int Class) {
    const uint32_t Pages = sizeClassInfo(Class).SpanPages;
    for (int I = 0; I < 400; ++I) {
      bool Clean = false;
      const uint32_t Off = A.allocSpan(Class, Pages, &Clean);
      ASSERT_NE(Off, MeshableArena::kInvalidSpanOff);
      A.arenaBase()[pagesToBytes(Off)] = static_cast<char>(I);
      A.freeDirtySpan(Class, Off, Pages);
    }
  };
  std::thread T1(Storm, ClassA);
  std::thread T2(Storm, ClassB);
  T1.join();
  T2.join();

  for (int S = 0; S < MeshableArena::kNumArenaShards; ++S) {
    const uint64_t Delta = A.shardLockAcquisitions(S) - Before[S];
    if (S == ClassA || S == ClassB)
      EXPECT_GE(Delta, 800u) << "storm shard " << S << " undercounted";
    else
      EXPECT_EQ(Delta, 0u) << "bystander shard " << S
                           << " was locked by a foreign class's storm";
  }
}

TEST(ArenaShardTest, DirtyAccountingAgreesPerShardAndAggregate) {
  MeshableArena A(kArenaBytes, /*MaxDirtyBytes=*/size_t{1} << 30);
  const int Classes[] = {onePageClass(0), onePageClass(1), 20, 23};
  size_t ExpectedDirty = 0;
  for (int C : Classes) {
    const uint32_t Pages = sizeClassInfo(C).SpanPages;
    bool Clean = false;
    const uint32_t Off = A.allocSpan(C, Pages, &Clean);
    ASSERT_NE(Off, MeshableArena::kInvalidSpanOff);
    memset(A.arenaBase() + pagesToBytes(Off), 0x5A, pagesToBytes(Pages));
    A.freeDirtySpan(C, Off, Pages);
    ExpectedDirty += Pages;
    EXPECT_EQ(A.dirtyPagesForShard(C), Pages);
  }
  size_t ShardSum = 0;
  for (int S = 0; S < MeshableArena::kNumArenaShards; ++S)
    ShardSum += A.dirtyPagesForShard(S);
  EXPECT_EQ(A.dirtyPages(), ExpectedDirty);
  EXPECT_EQ(ShardSum, ExpectedDirty)
      << "global dirty counter drifted from the shard slices";
  // Dirty pages are cached, not punched: still committed, still real
  // file blocks.
  EXPECT_EQ(A.committedPages(), ExpectedDirty);
  EXPECT_EQ(A.kernelFilePages(), ExpectedDirty);

  EXPECT_EQ(A.flushDirty(), ExpectedDirty);
  EXPECT_EQ(A.dirtyPages(), 0u);
  for (int S = 0; S < MeshableArena::kNumArenaShards; ++S)
    EXPECT_EQ(A.dirtyPagesForShard(S), 0u);
  EXPECT_EQ(A.committedPages(), 0u);
  EXPECT_EQ(A.kernelFilePages(), 0u) << "kernel disagrees after flush";
}

TEST(ArenaShardTest, BudgetTripFlushesOnlyTheTrippingShard) {
  // Budget of 8 pages: park exactly 8 dirty pages on class A (never
  // over), then one more on class B to trip it. Only B's shard may
  // flush — A's cache survives, which is the whole point of scoping
  // the trip to the shard that crossed the line.
  MeshableArena A(kArenaBytes, /*MaxDirtyBytes=*/8 * kPageSize);
  const int ClassA = onePageClass(0);
  const int ClassB = onePageClass(1);
  bool Clean = false;
  uint32_t Offs[8];
  for (auto &Off : Offs) {
    Off = A.allocSpan(ClassA, 1, &Clean);
    ASSERT_NE(Off, MeshableArena::kInvalidSpanOff);
    A.arenaBase()[pagesToBytes(Off)] = 1;
  }
  const uint32_t Tripper = A.allocSpan(ClassB, 1, &Clean);
  ASSERT_NE(Tripper, MeshableArena::kInvalidSpanOff);
  A.arenaBase()[pagesToBytes(Tripper)] = 1;

  for (auto Off : Offs)
    A.freeDirtySpan(ClassA, Off, 1);
  EXPECT_EQ(A.dirtyPages(), 8u) << "at the budget is not over it";

  A.freeDirtySpan(ClassB, Tripper, 1);
  EXPECT_EQ(A.dirtyPagesForShard(ClassB), 0u) << "tripping shard flushed";
  EXPECT_EQ(A.dirtyPagesForShard(ClassA), 8u)
      << "bystander shard's dirty cache must survive a foreign trip";
  EXPECT_EQ(A.dirtyPages(), 8u);
}

TEST(ArenaShardTest, ConcurrentChurnKeepsCountersCoherent) {
  MeshableArena A(kArenaBytes, /*MaxDirtyBytes=*/64 * kPageSize);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 600;
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&A, &Failed, T] {
      // Mixed-length classes so budget trips interleave with recycling
      // across shards of different span geometry.
      const int Class = (T % 2 == 0) ? onePageClass(T / 2) : 20 + T;
      const uint32_t Pages = sizeClassInfo(Class).SpanPages;
      Rng R(0xA0 + T);
      std::vector<uint32_t> Live;
      for (int I = 0; I < kOpsPerThread; ++I) {
        if (Live.empty() || R.withProbability(0.6)) {
          bool Clean = false;
          const uint32_t Off = A.allocSpan(Class, Pages, &Clean);
          if (Off == MeshableArena::kInvalidSpanOff) {
            Failed.store(true);
            return;
          }
          A.arenaBase()[pagesToBytes(Off)] = static_cast<char>(I);
          Live.push_back(Off);
        } else {
          A.freeDirtySpan(Class, Live.back(), Pages);
          Live.pop_back();
        }
      }
      for (uint32_t Off : Live)
        A.freeDirtySpan(Class, Off, Pages);
    });
  }
  for (auto &T : Threads)
    T.join();
  ASSERT_FALSE(Failed.load()) << "arena exhausted mid-storm";

  // Quiescent: everything freed dirty. The counters must reconcile.
  size_t ShardSum = 0;
  for (int S = 0; S < MeshableArena::kNumArenaShards; ++S)
    ShardSum += A.dirtyPagesForShard(S);
  EXPECT_EQ(A.dirtyPages(), ShardSum);
  EXPECT_EQ(A.committedPages(), ShardSum)
      << "no live spans remain, so committed == dirty-cached";
  EXPECT_LE(A.kernelFilePages(), A.frontierPages());
  A.flushDirty();
  EXPECT_EQ(A.dirtyPages(), 0u);
  EXPECT_EQ(A.committedPages(), 0u);
  EXPECT_EQ(A.kernelFilePages(), 0u);
}

#ifndef NDEBUG
TEST(ArenaShardTest, HeldMaskTracksArenaShardLocks) {
  MeshableArena A(kArenaBytes, kMaxDirtyBytes);
  EXPECT_EQ(lockrank::heldArenaShards(), 0u);
  A.lockShardForTest(2);
  EXPECT_EQ(lockrank::heldArenaShards(), uint32_t{1} << 2);
  A.lockShardForTest(MeshableArena::kLargeArenaShard);
  EXPECT_EQ(lockrank::heldArenaShards(),
            (uint32_t{1} << 2) |
                (uint32_t{1} << MeshableArena::kLargeArenaShard));
  A.unlockShardForTest(MeshableArena::kLargeArenaShard);
  A.unlockShardForTest(2);
  EXPECT_EQ(lockrank::heldArenaShards(), 0u);
}
#endif // NDEBUG

} // namespace
} // namespace mesh
