//===- FaultInjectionTest.cpp - Syscall fault-storm integration tests ------===//
///
/// Drives the sys:: injection seam against the full allocator and pins
/// the three degradation layers end to end:
///
///   - allocation: a commit-refusal storm makes malloc return nullptr
///     (never crash, never corrupt), and the heap recovers completely
///     once the storm clears;
///   - meshing: a remap failure mid-pass rolls the pair back to two
///     valid unmeshed spans with every object's contents intact;
///   - give-back: a hole-punch failure degrades to deferred retry, and
///     the deferred pages really reach the kernel after the fault
///     clears — also when the failing punches are fork prepare's.
///
/// The injector state is process-global, so every test disarms it on
/// entry and exit; a Runtime is always constructed *before* arming so
/// arena bring-up (which deliberately aborts on failure) is never in
/// the blast radius except where a test targets it on purpose
/// (ForkUnderFaultChildAborts).
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "TestConfig.h"
#include "support/Sys.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace mesh {
namespace {

/// Disarm on construction and destruction so a failing test cannot
/// leak an armed injector into its neighbors.
struct FaultGuard {
  FaultGuard() { sys::clearFaults(); }
  ~FaultGuard() { sys::clearFaults(); }
};

uint64_t readFaultStat(Runtime &R, const char *Name) {
  uint64_t Value = 0;
  size_t Len = sizeof(Value);
  EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), 0) << Name;
  return Value;
}

/// The shadow model for storm tests: every successful allocation is
/// recorded with its fill pattern and later verified byte for byte.
struct ShadowEntry {
  char *Ptr;
  size_t Bytes;
  char Pattern;
};

/// Allocates \p Count large-ish spans (each needs a fresh commit, so a
/// commit storm bites on nearly every call), recording survivors in
/// the shadow model. Returns the number of nullptr returns.
size_t stormAllocate(Runtime &R, int Count, char Salt,
                     std::vector<ShadowEntry> &Shadow) {
  size_t Nulls = 0;
  for (int I = 0; I < Count; ++I) {
    // 16 KiB: a 4-page large allocation — every one commits pages.
    const size_t Bytes = 4 * kPageSize;
    auto *P = static_cast<char *>(R.malloc(Bytes));
    if (P == nullptr) {
      ++Nulls;
      continue;
    }
    const char Pattern = static_cast<char>((I * 131) ^ Salt);
    memset(P, Pattern, Bytes);
    Shadow.push_back({P, Bytes, Pattern});
  }
  return Nulls;
}

int countShadowMismatches(const std::vector<ShadowEntry> &Shadow) {
  int Bad = 0;
  for (const ShadowEntry &E : Shadow) {
    for (size_t B = 0; B < E.Bytes; ++B)
      if (E.Ptr[B] != E.Pattern) {
        ++Bad;
        break;
      }
  }
  return Bad;
}

TEST(FaultInjectionTest, CommitStormDegradesToNullAndRecovers) {
  FaultGuard Guard;
  Runtime R(testOptions());
  // Warm-up proves the heap works before the storm.
  void *Warm = R.malloc(64);
  ASSERT_NE(Warm, nullptr);

  const uint64_t InjectedBefore = readFaultStat(R, "faults.injected");
  const uint64_t OomBefore = readFaultStat(R, "faults.oom_returns");
  ASSERT_TRUE(sys::configureFaults("commit:ENOMEM:every=3"));

  constexpr int kThreads = 4;
  const int PerThread = static_cast<int>(stressScaled(300));
  std::vector<std::vector<ShadowEntry>> Shadows(kThreads);
  std::vector<size_t> Nulls(kThreads, 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Nulls[T] = stormAllocate(R, PerThread, static_cast<char>('A' + T),
                               Shadows[T]);
    });
  for (auto &Th : Threads)
    Th.join();

  size_t TotalNulls = 0, TotalLive = 0;
  for (int T = 0; T < kThreads; ++T) {
    TotalNulls += Nulls[T];
    TotalLive += Shadows[T].size();
    EXPECT_EQ(countShadowMismatches(Shadows[T]), 0)
        << "corruption in thread " << T << "'s survivors under the storm";
  }
  EXPECT_GT(TotalNulls, 0u) << "storm never bit: the test proved nothing";
  EXPECT_GT(TotalLive, 0u) << "no allocation survived a 1-in-3 storm";
  EXPECT_GT(readFaultStat(R, "faults.injected"), InjectedBefore);
  EXPECT_GT(readFaultStat(R, "faults.oom_returns"), OomBefore);

  // Full recovery: once the injector disarms, allocation never fails.
  sys::clearFaults();
  for (int I = 0; I < 100; ++I) {
    void *P = R.malloc(4 * kPageSize);
    ASSERT_NE(P, nullptr) << "heap did not recover after the storm";
    R.free(P);
  }
  for (auto &Shadow : Shadows)
    for (const ShadowEntry &E : Shadow)
      R.free(E.Ptr);
  R.free(Warm);
}

TEST(FaultInjectionTest, SeededRateStormMatchesShadowModel) {
  FaultGuard Guard;
  Runtime R(testOptions());
  ASSERT_TRUE(sys::configureFaults("commit:ENOMEM:rate=5,seed=42"));

  constexpr int kThreads = 4;
  const int PerThread = static_cast<int>(stressScaled(300));
  std::vector<std::vector<ShadowEntry>> Shadows(kThreads);
  std::vector<size_t> Nulls(kThreads, 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Nulls[T] = stormAllocate(R, PerThread, static_cast<char>('R' + T),
                               Shadows[T]);
    });
  for (auto &Th : Threads)
    Th.join();

  size_t TotalNulls = 0;
  for (int T = 0; T < kThreads; ++T) {
    TotalNulls += Nulls[T];
    EXPECT_EQ(countShadowMismatches(Shadows[T]), 0);
  }
  EXPECT_GT(TotalNulls, 0u)
      << "a 1-in-5 seeded storm over 1200 commits never fired";

  sys::clearFaults();
  void *P = R.malloc(4 * kPageSize);
  EXPECT_NE(P, nullptr);
  R.free(P);
  for (auto &Shadow : Shadows)
    for (const ShadowEntry &E : Shadow)
      R.free(E.Ptr);
}

TEST(FaultInjectionTest, TransientFaultsAreRetriedNotSurfaced) {
  FaultGuard Guard;
  Runtime R(testOptions());
  const uint64_t RetriedBefore = sys::faultsRetried();
  // EINTR on every second wrapped call of every op: the seam's bounded
  // retry must absorb all of it — the heap never sees a failure.
  ASSERT_TRUE(sys::configureFaults("all:EINTR:every=2"));
  std::vector<void *> Ptrs;
  for (int I = 0; I < 64; ++I) {
    void *P = R.malloc((I % 2) ? 4 * kPageSize : 64);
    ASSERT_NE(P, nullptr) << "transient fault leaked through as failure";
    Ptrs.push_back(P);
  }
  for (void *P : Ptrs)
    R.free(P); // punches go through fallocate: more retried EINTRs
  sys::clearFaults();
  EXPECT_GT(sys::faultsRetried(), RetriedBefore)
      << "the storm never exercised the retry path";
}

TEST(FaultInjectionTest, MeshRemapFailureRollsBackPair) {
  FaultGuard Guard;
  Runtime R(testOptions());
  // The MeshEndToEnd recipe: many sparse 16-byte spans so a mesh pass
  // has plenty of candidate pairs.
  const int Total = 64 * 256;
  std::vector<char *> All;
  for (int I = 0; I < Total; ++I) {
    auto *P = static_cast<char *>(R.malloc(16));
    ASSERT_NE(P, nullptr);
    snprintf(P, 16, "obj-%d", I);
    All.push_back(P);
  }
  std::vector<char *> Kept;
  for (int I = 0; I < Total; ++I) {
    if (I % 8 == 0)
      Kept.push_back(All[I]);
    else
      R.free(All[I]);
  }
  R.localHeap().releaseAll();

  const uint64_t MeshesBefore = readFaultStat(R, "stats.mesh_count");
  const uint64_t RollbacksBefore = readFaultStat(R, "faults.mesh_rollbacks");

  // Every remap attempt fails: each candidate pair must roll back to
  // two valid unmeshed spans and the pass must reclaim nothing.
  ASSERT_TRUE(sys::configureFaults("mmap:ENOMEM:every=1"));
  EXPECT_EQ(R.meshNow(), 0u) << "a fully-failing pass reclaimed memory";
  sys::clearFaults();

  EXPECT_EQ(readFaultStat(R, "stats.mesh_count"), MeshesBefore)
      << "a rolled-back pair was counted as meshed";
  EXPECT_GT(readFaultStat(R, "faults.mesh_rollbacks"), RollbacksBefore)
      << "no rollback was recorded: the storm never hit a pair";

  // Rollback is content-verifiable: every survivor still reads its
  // original bytes, and remains writable (the barrier was undone).
  int Idx = 0;
  for (char *P : Kept) {
    char Want[16];
    snprintf(Want, sizeof(Want), "obj-%d", Idx * 8);
    ASSERT_STREQ(P, Want) << "rollback corrupted object " << Idx;
    P[15] = 'w';
    ++Idx;
  }

  // With the injector clear the same candidates mesh for real, and the
  // contents still survive.
  EXPECT_GT(R.meshNow(), 0u) << "heap did not recover meshing ability";
  EXPECT_GT(readFaultStat(R, "stats.mesh_count"), MeshesBefore);
  Idx = 0;
  for (char *P : Kept) {
    char Want[16];
    snprintf(Want, sizeof(Want), "obj-%d", Idx * 8);
    ASSERT_STREQ(P, Want) << "post-recovery mesh lost contents";
    ASSERT_EQ(P[15], 'w') << "post-rollback write lost by the real mesh";
    ++Idx;
  }
  for (char *P : Kept)
    R.free(P);
}

TEST(FaultInjectionTest, PunchFailureDegradesAndLaterDrains) {
  FaultGuard Guard;
  Runtime R(testOptions());
  const uint64_t FallbacksBefore = readFaultStat(R, "faults.punch_fallbacks");

  // One binnable (power-of-two) span and one odd span, freed while
  // every hole punch fails: both degrade (MADV_DONTNEED + deferred
  // retry) instead of erroring or leaking.
  auto *Pow2 = static_cast<char *>(R.malloc(16 * kPageSize));
  auto *Odd = static_cast<char *>(R.malloc(5 * kPageSize));
  ASSERT_NE(Pow2, nullptr);
  ASSERT_NE(Odd, nullptr);
  memset(Pow2, 0xAB, 16 * kPageSize);
  memset(Odd, 0xCD, 5 * kPageSize);
  ASSERT_TRUE(sys::configureFaults("fallocate:ENOSPC:every=1"));
  R.free(Pow2);
  R.free(Odd);
  EXPECT_GT(readFaultStat(R, "faults.punch_fallbacks"), FallbacksBefore);

  // The un-punched pages must never surface through the demand-zero
  // (memset-skipping) calloc path still dirty.
  auto *Z = static_cast<unsigned char *>(R.calloc(1, 16 * kPageSize));
  ASSERT_NE(Z, nullptr);
  for (size_t B = 0; B < 16 * kPageSize; ++B)
    ASSERT_EQ(Z[B], 0) << "calloc returned a punch-fallback page dirty";
  R.free(Z); // punch also fails; parked again
  sys::clearFaults();

  // Once the fault clears, a flush drains the deferred spans and the
  // kernel's file charge agrees with our committed accounting again.
  R.global().flushDirtyPages();
  EXPECT_LE(pagesToBytes(R.global().kernelFilePages()), R.committedBytes())
      << "deferred punches did not reach the kernel after recovery";
}

TEST(FaultInjectionTest, ForkWhilePunchesFailDefersDirtySpans) {
  FaultGuard Guard;
  MeshOptions Opts = testOptions();
  Opts.MaxDirtyBytes = 64 * 1024 * 1024; // freed spans stay dirty
  Runtime R(Opts);
  constexpr int kObjects = 4096;
  constexpr size_t kBytes = 256;
  auto Fill = [](int I) { return static_cast<unsigned char>(I * 37 + 11); };
  std::vector<unsigned char *> Objs;
  for (int I = 0; I < kObjects; ++I) {
    auto *P = static_cast<unsigned char *>(R.malloc(kBytes));
    ASSERT_NE(P, nullptr);
    memset(P, Fill(I), kBytes);
    Objs.push_back(P);
  }
  // Detach every span, then free the first half. Spans fill one after
  // another, so the freed half empties whole spans, which go dirty.
  R.localHeap().releaseAll();
  for (int I = 0; I < kObjects / 2; ++I)
    R.free(Objs[I]);
  ASSERT_GT(R.global().dirtyBytes(), 0u) << "test precondition: no dirty span";
  auto SurvivorsIntact = [&] {
    for (int I = kObjects / 2; I < kObjects; ++I)
      for (size_t B = 0; B < kBytes; ++B)
        if (Objs[I][B] != Fill(I))
          return false;
    return true;
  };
  auto KernelWithinCommitted = [&] {
    return pagesToBytes(R.global().kernelFilePages()) <= R.committedBytes();
  };

  // Every punch fails, so fork prepare's flush cannot release a single
  // dirty span. It must park each one on the deferred list instead: the
  // child's arena rebuild replays only owned spans and requires an
  // empty dirty set.
  const uint64_t FallbacksBefore = readFaultStat(R, "faults.punch_fallbacks");
  ASSERT_TRUE(sys::configureFaults("fallocate:ENOSPC:every=1"));
  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    int Bad = 0;
    if (R.global().dirtyBytes() != 0)
      Bad |= 1;
    if (!SurvivorsIntact())
      Bad |= 2;
    // The deferred punches land once the faults clear.
    sys::clearFaults();
    R.global().flushDirtyPages();
    if (!KernelWithinCommitted())
      Bad |= 4;
    _exit(Bad);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child crashed (status " << Status << ")";
  EXPECT_EQ(WEXITSTATUS(Status), 0)
      << "child: 1 = dirty spans survived the fork, 2 = survivor "
         "corrupted, 4 = kernel file pages above committed after recovery";

  EXPECT_EQ(R.global().dirtyBytes(), 0u) << "prepare left spans dirty";
  EXPECT_GT(readFaultStat(R, "faults.punch_fallbacks"), FallbacksBefore)
      << "the storm never hit the prepare flush";
  sys::clearFaults();
  R.global().flushDirtyPages();
  EXPECT_TRUE(KernelWithinCommitted())
      << "deferred punches did not reach the kernel after recovery";
  EXPECT_TRUE(SurvivorsIntact()) << "parent data damaged by the fork";
  for (int I = kObjects / 2; I < kObjects; ++I)
    R.free(Objs[I]);
}

TEST(FaultInjectionTest, ForkUnderFaultChildAborts) {
  FaultGuard Guard;
  Runtime R(testOptions());
  std::vector<void *> PreFork;
  for (int I = 0; I < 100; ++I) {
    void *P = R.malloc(128);
    ASSERT_NE(P, nullptr);
    memset(P, 0x5A, 128);
    PreFork.push_back(P);
  }

  // The documented abort-vs-degrade boundary (DESIGN.md "Failure
  // policy", fork-child exception): a child whose copy-to-fresh-memfd
  // rebuild fails cannot degrade — it still shares physical pages with
  // the parent, and continuing would reintroduce the fork-corruption
  // bug. It must abort, and the parent must be untouched.
  ASSERT_TRUE(sys::configureFaults("memfd_create:ENOMEM:every=1"));
  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // The atfork child handler aborts before this runs; reaching here
    // means the rebuild silently succeeded (or worse, was skipped).
    _exit(7);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFSIGNALED(Status))
      << "child must die by signal, not exit (status " << Status << ")";
  if (WIFSIGNALED(Status)) {
    EXPECT_EQ(WTERMSIG(Status), SIGABRT);
  }
  sys::clearFaults();

  // Parent: fully functional, contents intact.
  for (void *P : PreFork) {
    const auto *C = static_cast<const unsigned char *>(P);
    for (int B = 0; B < 128; ++B)
      ASSERT_EQ(C[B], 0x5A) << "parent data damaged by the aborted fork";
  }
  void *After = R.malloc(4 * kPageSize);
  EXPECT_NE(After, nullptr);
  R.free(After);
  for (void *P : PreFork)
    R.free(P);
}

TEST(FaultInjectionTest, GarbageSpecsAreRejectedAndStayOff) {
  FaultGuard Guard;
  Runtime R(testOptions());
  const uint64_t InjectedBefore = sys::faultsInjected();
  // Same warn-and-keep-default contract as the other MESH_* env knobs.
  EXPECT_FALSE(sys::configureFaults("garbage"));
  EXPECT_FALSE(sys::configureFaults("commit:NOTANERRNO:every=3"));
  EXPECT_FALSE(sys::configureFaults("commit:ENOMEM:every=0"));
  EXPECT_FALSE(sys::configureFaults("notanop:ENOMEM:every=3"));
  EXPECT_FALSE(sys::configureFaults("commit:ENOMEM"));
  for (int I = 0; I < 50; ++I) {
    void *P = R.malloc(4 * kPageSize);
    ASSERT_NE(P, nullptr) << "rejected spec armed the injector anyway";
    R.free(P);
  }
  EXPECT_EQ(sys::faultsInjected(), InjectedBefore);
  // A valid spec still arms after the rejections (the failed parses
  // must not have latched a poisoned state). 64 pages is firmly on the
  // large-alloc path, where every span grab needs a commit — a
  // size-class request could be served commit-free from a span still
  // attached to this thread.
  EXPECT_TRUE(sys::configureFaults("commit:ENOMEM:every=1"));
  EXPECT_EQ(R.malloc(64 * kPageSize), nullptr);
  EXPECT_GT(sys::faultsInjected(), InjectedBefore);
  sys::clearFaults();
}

} // namespace
} // namespace mesh
