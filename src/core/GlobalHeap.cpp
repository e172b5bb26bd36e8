//===- GlobalHeap.cpp - Shared heap state and meshing coordinator ----------===//

#include "core/GlobalHeap.h"

#include "core/Mesher.h"
#include "core/WriteBarrier.h"
#include "support/InternalHeap.h"
#include "support/LockRank.h"
#include "support/Log.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cstring>
#include <ctime>

namespace mesh {

namespace {

uint64_t monotonicNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

uint64_t monotonicMs() { return monotonicNs() / 1000000ULL; }

} // namespace

GlobalHeap::GlobalHeap(const MeshOptions &Options)
    : Opts(Options), Arena(Options.ArenaBytes, Options.MaxDirtyBytes),
      MeshRandom(Options.Seed), MeshingEnabledFlag(Options.MeshingEnabled),
      MeshPeriodMsAtomic(Options.MeshPeriodMs) {
  // Independent bin-selection streams per shard: refills of different
  // classes draw concurrently under different locks, so they cannot
  // share the mesher's generator.
  for (int I = 0; I < kNumShards; ++I)
    Shards[I].Random.seed(Options.Seed ^ (0x517CC1B727220A95ULL * (I + 1)));
  if (Opts.BarrierEnabled) {
    WriteBarrier::instance().ensureHandlerInstalled();
    WriteBarrier::instance().registerArena(Arena.arenaBase(),
                                           Opts.ArenaBytes);
  }
}

GlobalHeap::~GlobalHeap() {
  // Reap every shard's pending stash first: it may hold dead MiniHeaps
  // (spans already released, metadata awaiting the drain) that the
  // page-table walk below cannot see.
  drainAllShards();
  // Destroy every surviving MiniHeap so its metadata returns to the
  // internal heap (which is shared process-wide and outlives us).
  const size_t Frontier = Arena.frontierPages();
  for (size_t Page = 0; Page < Frontier; ++Page) {
    MiniHeap *MH = Arena.ownerOfPage(Page);
    if (MH == nullptr)
      continue;
    for (uint32_t Off : MH->spans())
      Arena.setOwner(Off, MH->spanPages(), nullptr);
    InternalHeap::global().deleteObj(MH);
  }
  if (Opts.BarrierEnabled)
    WriteBarrier::instance().unregisterArena(Arena.arenaBase());
}

void GlobalHeap::lockShard(int ShardIdx) {
  assert(ShardIdx >= 0 && ShardIdx < kNumShards && "shard out of range");
  // Rank enforcement (ascending order, never after an arena lock)
  // lives in LockRank.h — shared with the arena's own shard tier.
  lockrank::acquireHeapShard(ShardIdx);
  Shards[ShardIdx].Lock.lock();
}

void GlobalHeap::unlockShard(int ShardIdx) {
  lockrank::releaseHeapShard(ShardIdx);
  Shards[ShardIdx].Lock.unlock();
}

void GlobalHeap::insertIntoBinLocked(Shard &S, MiniHeap *MH, uint32_t InUse) {
  // InUse is the caller's snapshot: lock-free remote frees may clear
  // more bits at any moment, so re-reading here could disagree with the
  // caller's bin-or-destroy decision. A stale (too-high) bin is benign;
  // the free that lowered it has queued MH on the pending stash, and
  // the next drain re-bins.
  assert(!MH->isInBin() && "double bin insertion");
  assert(InUse > 0 && InUse < MH->objectCount() &&
         "only partially full spans are binned");
  const int Bin = occupancyBin(InUse, MH->objectCount());
  auto &B = S.Bins[Bin];
  MH->setBin(static_cast<int8_t>(Bin), static_cast<uint32_t>(B.size()));
  B.push_back(MH);
}

void GlobalHeap::removeFromBinLocked(Shard &S, MiniHeap *MH) {
  if (!MH->isInBin())
    return;
  auto &B = S.Bins[MH->binIndex()];
  const uint32_t Slot = MH->binSlot();
  assert(Slot < B.size() && B[Slot] == MH && "bin bookkeeping corrupt");
  B[Slot] = B.back();
  B[Slot]->setBin(MH->binIndex(), Slot);
  B.pop_back();
  MH->clearBin();
}

void GlobalHeap::rebinOrDestroyLocked(Shard &S, MiniHeap *MH) {
  removeFromBinLocked(S, MH);
  const uint32_t InUse = MH->inUseCount();
  if (InUse == 0) {
    destroyMiniHeapLocked(S, MH);
    return;
  }
  if (InUse < MH->objectCount())
    insertIntoBinLocked(S, MH, InUse);
  // Full spans float unbinned; the page table still references them and
  // the next free re-bins them.
}

void GlobalHeap::destroyMiniHeapLocked(Shard &S, MiniHeap *MH) {
  assert(MH->isEmpty() && "destroying a MiniHeap with live objects");
  assert(!MH->isInBin() && "destroying a binned MiniHeap");
  const uint32_t Pages = MH->spanPages();
  const auto &Spans = MH->spans();
  // Span 0 is the identity-mapped physical span; later entries are
  // virtual spans meshed onto it whose own file pages are already
  // holes. Releasing the pages immediately is safe: epoch readers only
  // dereference MiniHeap *metadata*, never span contents, and a stale
  // reader's bitmap update on this (empty) bitmap is a detected double
  // free. Only the metadata delete must wait for the epoch — batched
  // in reapRetiredLocked so a drain destroying many spans pays one
  // synchronize, not one per span. The arena calls below serialize on
  // the span's own class shard (the heap shard lock we hold is what
  // guarantees no other thread is moving these spans), so destroys of
  // different classes run fully in parallel. The heap and arena shard
  // maps coincide, and large MiniHeaps are never meshable, so a large
  // span takes the release path on the large arena shard.
  for (uint32_t I = 0; I < Spans.size(); ++I)
    Arena.setOwner(Spans[I], Pages, nullptr);
  if (MH->isMeshable())
    Arena.freeDirtySpan(shardIndexFor(MH), Spans[0], Pages);
  else
    Arena.freeReleasedSpan(shardIndexFor(MH), Spans[0], Pages);
  for (uint32_t I = 1; I < Spans.size(); ++I)
    Arena.freeAliasSpan(MH->sizeClass(), Spans[I], Pages);
  S.RetiredList.push_back(MH);
}

void GlobalHeap::epochSynchronize() {
  SpinLockGuard Guard(EpochSyncLock);
  telemetry::Timer T;
  MiniHeapEpoch.synchronize();
  if (T.armed()) {
    const uint64_t Ns = T.elapsedNs();
    telemetry::event(telemetry::EventType::kEpochSync, 0, Ns);
    telemetry::histRecord(telemetry::kHistEpochSync, Ns);
  }
}

void GlobalHeap::deleteRetired(InternalVector<MiniHeap *> &Retired) {
  for (MiniHeap *MH : Retired) {
    if (MH->pendingFrees() != 0) {
      // A waited-out remote free pushed MH onto its shard's stash (its
      // bitmap update lost to the destruction, which is fine — the
      // object was already gone). The metadata must survive until the
      // drain pops the stale entry; mark it so the drain performs the
      // delete.
      MH->markDead();
    } else {
      InternalHeap::global().deleteObj(MH);
    }
  }
  Retired.clear();
}

void GlobalHeap::reapRetiredLocked(Shard &S) {
  if (S.RetiredList.empty())
    return;
  // One epoch advance covers every retiree: after it, no reader can
  // still hold a pointer resolved before the page table was cleared
  // (or retargeted, for meshed-away sources), so each pending-free
  // count deleteRetired consults is final.
  epochSynchronize();
  deleteRetired(S.RetiredList);
}

void GlobalHeap::pushPending(Shard &S, MiniHeap *MH) {
  MiniHeap *Head = S.PendingStash.load(std::memory_order_acquire);
  do {
    MH->setNextPending(Head);
  } while (!S.PendingStash.compare_exchange_weak(Head, MH,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire));
}

void GlobalHeap::drainAllShards() {
  // The refill's drain-and-reap unit, once per shard: each shard's
  // retirees are reaped before its lock drops, so no concurrent drain
  // can pop a stale stash entry ahead of its markDead hand-off.
  for (int I = 0; I < kNumShards; ++I) {
    lockShard(I);
    drainPendingLocked(Shards[I]);
    unlockShard(I);
  }
}

void GlobalHeap::drainStashLocked(Shard &S) {
  MiniHeap *MH = S.PendingStash.exchange(nullptr, std::memory_order_acq_rel);
  while (MH != nullptr) {
    MiniHeap *Next = MH->nextPending();
    MH->setNextPending(nullptr);
    if (MH->isDead()) {
      // Destroyed while stashed; this was the last reference.
      InternalHeap::global().deleteObj(MH);
    } else {
      MH->takePendingFrees();
      // Attached spans stay with their owner thread — the cleared bits
      // are picked up at the next attach (Section 4.4.4). A racer that
      // frees after takePendingFrees re-pushes MH for the next drain.
      if (!MH->isAttached())
        rebinOrDestroyLocked(S, MH);
    }
    MH = Next;
  }
}

void GlobalHeap::drainPendingLocked(Shard &S) {
  drainStashLocked(S);
  reapRetiredLocked(S);
}

MiniHeap *GlobalHeap::allocMiniHeapForClass(int SizeClass) {
  assert(SizeClass >= 0 && SizeClass < kNumSizeClasses &&
         "size class out of range");
  Shard &S = Shards[SizeClass];
  MiniHeap *MH = nullptr;
  lockShard(SizeClass);
  // Fold queued remote frees into the bins first: a span another thread
  // just emptied out may be exactly the reuse candidate we want.
  drainPendingLocked(S);
  // Scan bins by decreasing occupancy and choose a random span from the
  // first non-empty bin (Section 3.1): maximizes utilization while
  // preserving the randomness the analysis relies on.
  for (int Bin = kOccupancyBins - 1; Bin >= 0 && MH == nullptr; --Bin) {
    auto &B = S.Bins[Bin];
    if (B.empty())
      continue;
    const uint32_t Idx =
        S.Random.inRange(0, static_cast<uint32_t>(B.size()) - 1);
    MH = B[Idx];
    removeFromBinLocked(S, MH);
    MH->setAttached(true);
  }
  if (MH == nullptr) {
    // No partially full span: carve a fresh one out of the arena. The
    // hot case (recycling a span this class freed dirty) stays on
    // arena shard SizeClass; only a recycling miss touches the shared
    // clean reserve / frontier under ArenaLock — so refill-miss storms
    // on different classes no longer serialize. Holding the heap shard
    // lock across alloc + setOwner also closes the fork window: the
    // fork quiesce needs this lock, so it can never snapshot a
    // committed-but-unowned span.
    const SizeClassInfo &Info = sizeClassInfo(SizeClass);
    bool IsClean = false;
    telemetry::Timer SpanTimer;
    const uint32_t Off =
        Arena.allocSpan(SizeClass, Info.SpanPages, &IsClean);
    if (SpanTimer.armed())
      telemetry::histRecord(telemetry::kHistSpanAcquire,
                            SpanTimer.elapsedNs());
    if (Off != MeshableArena::kInvalidSpanOff) {
      MH = InternalHeap::global().makeNew<MiniHeap>(
          Off, Info.SpanPages, Info.ObjectSize, Info.ObjectCount,
          static_cast<int8_t>(SizeClass), Info.Meshable);
      Arena.setOwner(Off, Info.SpanPages, MH);
      MH->setAttached(true);
      Stats.updatePeak(Arena.committedPages());
    } else {
      // Span commit refused or arena exhausted: unwind with no span
      // carved, no MiniHeap, no lock held — the caller's malloc
      // returns nullptr with errno = ENOMEM.
      Stats.OomReturns.fetch_add(1, std::memory_order_relaxed);
    }
  }
  unlockShard(SizeClass);
  // The meshing trigger: remote frees no longer take any lock, so the
  // refill path is where a free-heavy steady state (partially-full
  // spans that never empty) gets its rate-limited mesh passes — the
  // role every locked free used to play. Outside the shard lock: a
  // pass acquires every shard in ascending order.
  maybeMesh();
  return MH;
}

void GlobalHeap::releaseMiniHeap(MiniHeap *MH) {
  if (MH == nullptr)
    return;
  assert(!MH->isLargeAlloc() && "thread heaps never attach large spans");
  const int ShardIdx = MH->sizeClass();
  lockShard(ShardIdx);
  MH->setAttached(false);
  rebinOrDestroyLocked(Shards[ShardIdx], MH);
  reapRetiredLocked(Shards[ShardIdx]);
  unlockShard(ShardIdx);
}

void *GlobalHeap::largeAllocZeroed(size_t Bytes, bool *WasZeroed) {
  const size_t Pages = bytesToPages(Bytes == 0 ? 1 : Bytes);
  // Refuse before the uint32 page-count narrowing below can truncate:
  // a request larger than the whole arena is unsatisfiable by
  // definition (this also catches the absurd sizes, e.g. the
  // malloc(PTRDIFF_MAX) probes glibc's tests are fond of).
  if (Pages > Arena.vm().arenaPages()) {
    Stats.OomReturns.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // A fresh span is invisible to other threads until returned, but the
  // large heap shard's lock is still taken across alloc + setOwner:
  // the fork quiesce acquires every heap shard, so a span can never be
  // committed-but-unowned at the fork instant (the child's rebuild
  // walks owners and would otherwise inherit an orphaned extent).
  lockShard(kLargeShard);
  bool IsClean = false;
  telemetry::Timer SpanTimer;
  const uint32_t Off =
      Arena.allocSpan(kLargeShard, static_cast<uint32_t>(Pages), &IsClean);
  if (SpanTimer.armed())
    telemetry::histRecord(telemetry::kHistSpanAcquire,
                          SpanTimer.elapsedNs());
  if (Off == MeshableArena::kInvalidSpanOff) {
    unlockShard(kLargeShard);
    Stats.OomReturns.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto *MH = InternalHeap::global().makeNew<MiniHeap>(
      Off, static_cast<uint32_t>(Pages), Bytes);
  Arena.setOwner(Off, static_cast<uint32_t>(Pages), MH);
  unlockShard(kLargeShard);
  Stats.updatePeak(Arena.committedPages());
  if (WasZeroed != nullptr)
    *WasZeroed = IsClean;
  return Arena.arenaBase() + pagesToBytes(Off);
}

bool GlobalHeap::tryFreeUnlocked(void *Ptr, bool *BecameEmpty,
                                 int *ShardIdx) {
  Epoch::Section Section(MiniHeapEpoch);
  // Checked inside the epoch: a mesh pass flags itself and then waits
  // out this epoch, so either we see the flag and divert, or the pass
  // waits for this free to finish before touching any bitmap.
  if (MeshInProgress.load(std::memory_order_seq_cst))
    return false;
  MiniHeap *MH = Arena.ownerOf(Ptr);
  if (MH == nullptr) {
    logWarning("ignoring free of unallocated pointer %p", Ptr);
    return true;
  }
  if (MH->isLargeAlloc())
    return false; // Span release needs the large shard + arena locks.
  uint32_t Off = 0;
  if (!MH->offsetOfAligned(Ptr, Arena.arenaBase(), &Off)) {
    logWarning("ignoring free of interior pointer %p", Ptr);
    return true;
  }
  if (!MH->bitmap().unset(Off)) {
    logWarning("ignoring double free of %p", Ptr);
    return true;
  }
  FreedSinceLastMesh.store(true, std::memory_order_relaxed);
  // First pending free queues MH for the owning shard's next drain.
  if (MH->notePendingFree() == 0)
    pushPending(Shards[MH->sizeClass()], MH);
  *BecameEmpty = MH->isEmpty();
  *ShardIdx = MH->sizeClass();
  return true;
}

void GlobalHeap::free(void *Ptr) {
  if (Ptr == nullptr)
    return;
  if (!Arena.contains(Ptr)) {
    logWarning("ignoring free of non-heap pointer %p", Ptr);
    return;
  }
  for (;;) {
    bool BecameEmpty = false;
    int ShardIdx = -1;
    if (tryFreeUnlocked(Ptr, &BecameEmpty, &ShardIdx)) {
      // The free itself is complete: one epoch-protected lookup and one
      // atomic bitmap update, the paper's cost model. Re-binning is
      // deferred to the next refill or mesh pass of the owning class,
      // both of which drain that shard's pending stash under its lock.
      // Only the empty-span transition warrants maintenance now — its
      // pages should go back to the arena promptly. The lock is taken
      // blocking: a concurrent holder (refill, another drain) may have
      // exchanged the stash before our push landed, and with per-class
      // shards there is no steady stream of other-class lock holders
      // to pick the span up, so "someone else will drain" no longer
      // holds. Empty transitions are rare relative to frees and shard
      // critical sections are short, so the wait is cheap.
      if (BecameEmpty) {
        lockShard(ShardIdx);
        drainPendingLocked(Shards[ShardIdx]);
        unlockShard(ShardIdx);
        maybeMesh();
      }
      return;
    }
    // Large object, or a mesh pass is consolidating spans: serialize on
    // the owning shard. The owner may change shards between the epoch
    // peek and the lock (span destroyed, page recycled to another
    // class) — in that case restart the dispatch from scratch.
    if (freeDiverted(Ptr))
      return;
  }
}

bool GlobalHeap::freeDiverted(void *Ptr) {
  // Peek the owning shard under the epoch (the tag read needs the
  // metadata alive, nothing more).
  int ShardIdx;
  {
    Epoch::Section Section(MiniHeapEpoch);
    MiniHeap *MH = Arena.ownerOf(Ptr);
    if (MH == nullptr) {
      logWarning("ignoring free of unallocated pointer %p", Ptr);
      return true;
    }
    ShardIdx = shardIndexFor(MH);
  }
  lockShard(ShardIdx);
  MiniHeap *MH;
  {
    // Re-validate under the shard lock: a shard's page-table entries
    // are only cleared or retargeted under that shard's lock, so an
    // owner that still resolves into this shard is now pinned — its
    // metadata cannot be deleted while we hold the lock. The epoch
    // section covers the one dereference (shardIndexFor) that happens
    // before the pin is established.
    Epoch::Section Section(MiniHeapEpoch);
    MH = Arena.ownerOf(Ptr);
    if (MH == nullptr) {
      unlockShard(ShardIdx);
      logWarning("ignoring free of unallocated pointer %p", Ptr);
      return true;
    }
    if (shardIndexFor(MH) != ShardIdx) {
      unlockShard(ShardIdx);
      return false; // Owner moved shards underfoot; retry dispatch.
    }
  }
  freeLocked(Shards[ShardIdx], MH, Ptr);
  reapRetiredLocked(Shards[ShardIdx]);
  unlockShard(ShardIdx);
  maybeMesh();
  return true;
}

void GlobalHeap::freeLocked(Shard &S, MiniHeap *MH, void *Ptr) {
  if (!MH->isAligned(Ptr, Arena.arenaBase())) {
    logWarning("ignoring free of interior pointer %p", Ptr);
    return;
  }
  const uint32_t Off = MH->offsetOf(Ptr, Arena.arenaBase());
  if (!MH->bitmap().unset(Off)) {
    logWarning("ignoring double free of %p", Ptr);
    return;
  }
  FreedSinceLastMesh.store(true, std::memory_order_relaxed);
  if (MH->isLargeAlloc()) {
    destroyMiniHeapLocked(S, MH);
    return;
  }
  if (!MH->isAttached())
    rebinOrDestroyLocked(S, MH);
  // Attached MiniHeaps stay with their owner thread; the cleared bit is
  // picked up at the next attach (Section 4.4.4).
}

size_t GlobalHeap::usableSize(const void *Ptr) const {
  Epoch::Section Section(MiniHeapEpoch);
  const MiniHeap *MH = Arena.ownerOf(Ptr);
  if (MH == nullptr)
    return 0;
  return MH->isLargeAlloc() ? MH->spanBytes() : MH->objectSize();
}

size_t GlobalHeap::meshNow() {
  // The ablation switch wins even over explicit requests: a "Mesh (no
  // meshing)" heap must never compact (Section 6.3).
  if (!meshingEnabled())
    return 0;
  SpinLockGuard Guard(MeshLock);
  return performMeshing(MeshPassOrigin::Foreground);
}

void GlobalHeap::maybeMesh() {
  if (!meshingEnabled())
    return;
  // Lock-free precheck, shared by both modes: within the rate-limit
  // window every trigger is redundant, so bail before touching any
  // shared state. This is also what keeps the background poke cheap —
  // at most one wakeup per MeshPeriodMs reaches the mesher thread.
  const uint64_t Now = monotonicMs();
  if (Now - LastMeshMs.load(std::memory_order_relaxed) < meshPeriodMs())
    return;
  // Background mode: hand the pass to the dedicated thread. One atomic
  // flag write + (rarely) a condvar signal; the mutator never meshes.
  if (requestMeshPass())
    return;
  // Synchronous fallback (no background mesher, MESH_BACKGROUND=0).
  // try_lock: if a pass is running (or another thread is deciding),
  // our trigger is redundant.
  if (!MeshLock.try_lock())
    return;
  SpinLockGuard Guard(MeshLock, AdoptLock);
  // Re-sample the clock for the locked recheck: another thread may have
  // finished a pass (advancing LastMeshMs past the pre-lock Now) in
  // between, and the stale Now would wrap the unsigned delta and let a
  // redundant back-to-back pass through. LastMeshMs is only written
  // under MeshLock, so a fresh read cannot be behind it.
  if (monotonicMs() - LastMeshMs.load(std::memory_order_relaxed) <
      meshPeriodMs())
    return;
  // Hysteresis (Section 4.5): after an ineffective pass, wait for
  // another global free before re-arming.
  if (LastMeshReleased < Opts.MeshEffectiveBytes &&
      !FreedSinceLastMesh.load(std::memory_order_relaxed))
    return;
  performMeshing(MeshPassOrigin::Foreground);
}

bool GlobalHeap::backgroundMaybeMesh() {
  if (!meshingEnabled())
    return false;
  // Blocking lock is fine: this is the dedicated thread, and the only
  // contenders are explicit meshNow() calls and other fork/teardown
  // rarities.
  SpinLockGuard Guard(MeshLock);
  if (monotonicMs() - LastMeshMs.load(std::memory_order_relaxed) <
      meshPeriodMs())
    return false;
  if (LastMeshReleased < Opts.MeshEffectiveBytes &&
      !FreedSinceLastMesh.load(std::memory_order_relaxed)) {
    // Declined by hysteresis: re-arm the poke gate anyway. Without
    // this, an alloc-heavy/free-light phase would find the gate open on
    // every refill and wake the mesher each time just to decline again;
    // with it, the check costs one wakeup per MeshPeriodMs.
    LastMeshMs.store(monotonicMs(), std::memory_order_relaxed);
    return false;
  }
  performMeshing(MeshPassOrigin::Background);
  return true;
}

bool GlobalHeap::backgroundPressureMesh() {
  if (!meshingEnabled())
    return false;
  SpinLockGuard Guard(MeshLock);
  // No MeshPeriodMs gate: pressure wakes are already paced by the
  // monitor's wake interval, and an idle heap never pokes — this path
  // is exactly how it gets compacted. The effectiveness hysteresis
  // still applies so a fragmented-but-unmeshable steady state stops
  // burning passes once the heap yields nothing and nothing is freed.
  if (LastMeshReleased < Opts.MeshEffectiveBytes &&
      !FreedSinceLastMesh.load(std::memory_order_relaxed))
    return false;
  performMeshing(MeshPassOrigin::Background);
  return true;
}

HeapFootprint GlobalHeap::sampleFootprint() const {
  HeapFootprint F;
  // Lock-free sampling: the page table's entries are atomic, and a
  // MiniHeap reachable through it cannot complete destruction while
  // this epoch section is open — destruction clears the table entries
  // first and the metadata delete waits out the epoch. No lock means a
  // sampler never contends with (or deadlocks against) the allocator.
  Epoch::Section Section(MiniHeapEpoch);
  const size_t Frontier = Arena.frontierPages();
  for (size_t Page = 0; Page < Frontier; ++Page) {
    const MiniHeap *MH = Arena.ownerOfPage(Page);
    // Count each MiniHeap exactly once, at the first page of its
    // physical span. Meshed-in alias spans resolve to the same owner
    // but at different page offsets, so they are skipped — committed
    // bytes are physical, and so is this sum.
    if (MH == nullptr || MH->physicalSpanOffset() != Page)
      continue;
    F.InUseBytes += size_t{MH->inUseCount()} * MH->objectSize();
    F.SpanBytes += MH->spanBytes();
  }
  F.CommittedBytes = pagesToBytes(Arena.committedPages());
  return F;
}

void GlobalHeap::lockForFork() {
  // Full rank order, so this cannot deadlock against any in-flight
  // allocator operation: MeshLock -> heap shards ascending -> arena
  // shards ascending -> ArenaLock -> EpochSyncLock. Once all are held,
  // no other thread is inside any heap critical section and fork() may
  // proceed.
  MeshLock.lock();
  for (int I = 0; I < kNumShards; ++I)
    lockShard(I);
  // Empty the dirty set for the child's rebuild, which replays only
  // owned spans. Every dirty push runs under a heap shard lock
  // (destroyMiniHeapLocked), so with all of them held the set can only
  // shrink; DeferFailures parks a failed punch instead of keeping it
  // dirty. Its clean-bin growth may allocate from the InternalHeap,
  // whose fork lock is not taken yet — in the child it is inherited
  // held, so the flush cannot wait until then.
  Arena.flushDirty(/*DeferFailures=*/true);
  Arena.lockAllShards();
  EpochSyncLock.lock();
}

void GlobalHeap::unlockForFork() {
  EpochSyncLock.unlock();
  Arena.unlockAllShards();
  for (int I = kNumShards - 1; I >= 0; --I)
    unlockShard(I);
  MeshLock.unlock();
}

namespace {

/// ForkSpanSource over the page table: one visit per virtual span,
/// each MiniHeap enumerated exactly once at the first page of its
/// physical span (alias pages resolve to the same owner at other
/// offsets and are skipped; retired/meshed-away metadata is no longer
/// reachable through the table at all). Runs in the atfork child —
/// single-threaded, every arena lock inherited held — so the plain
/// walk needs no epoch section and must not allocate.
class PageTableForkSpanSource final : public ForkSpanSource {
public:
  explicit PageTableForkSpanSource(const MeshableArena &Arena)
      : Arena(Arena) {}

  void forEachVirtualSpan(SpanVisitor Visit, void *Ctx) override {
    const size_t Frontier = Arena.frontierPages();
    for (size_t Page = 0; Page < Frontier; ++Page) {
      const MiniHeap *MH = Arena.ownerOfPage(Page);
      if (MH == nullptr || MH->physicalSpanOffset() != Page)
        continue;
      const auto &Spans = MH->spans();
      for (uint32_t I = 0; I < Spans.size(); ++I)
        Visit(Ctx, Spans[I], Spans[0], MH->spanPages());
    }
  }

private:
  const MeshableArena &Arena;
};

} // namespace

void GlobalHeap::reinitializeArenaAfterFork() {
  // Called from the atfork child handler with every heap lock
  // inherited held (lockForFork ran in prepare) and exactly one thread
  // in the process; the parent is fenced on the fork pipe until this
  // returns, so the inherited mapping is a stable fork-instant
  // snapshot to copy from. Dirty bins were flushed pre-fork
  // (lockForFork), so every committed page belongs to a live span the
  // walk below replays — nothing here may allocate.
  assert(Arena.dirtyPages() == 0 &&
         "fork child inherited unflushed dirty spans");
  PageTableForkSpanSource Spans(Arena);
  Arena.vm().reinitializeAfterFork(Spans);
  Arena.resetDeferredAfterFork();
}

size_t GlobalHeap::flushDirtyPages() {
  // Destroy queued-up empty spans first so their pages flush too.
  drainAllShards();
  return pagesToBytes(Arena.flushDirty());
}

size_t GlobalHeap::binnedCount(int SizeClass) {
  Shard &S = Shards[SizeClass];
  lockShard(SizeClass);
  drainPendingLocked(S);
  size_t Count = 0;
  for (int Bin = 0; Bin < kOccupancyBins; ++Bin)
    Count += S.Bins[Bin].size();
  unlockShard(SizeClass);
  return Count;
}

size_t GlobalHeap::performMeshing(MeshPassOrigin Origin) {
  // Quiesce the lock-free free path: raise the flag, then wait out
  // every free already past the flag check. From here until the flag
  // drops, remote frees serialize on their owning shard's lock (per
  // class they queue behind this pass's visit of that shard), so
  // bitmaps only change under our feet through attached shuffle
  // vectors — which never cover meshing candidates — or shard-locked
  // frees of classes the pass is not currently holding.
  MeshInProgress.store(true, std::memory_order_seq_cst);
  epochSynchronize();
  const uint64_t Start = monotonicNs();
  size_t PagesReleased = 0;
  uint32_t MeshedThisPass = 0;
  uint64_t ScanNs = 0;
  uint64_t PairsFound = 0;

  InternalVector<MiniHeap *> Candidates;
  InternalVector<MeshPair> Pairs;
  // The rendezvous: shards are visited strictly in ascending index
  // order, each drained — and, for meshable classes, meshed — under
  // its own lock. A pass is an explicit reclamation point, so even
  // non-meshable classes and the large shard get their pending frees
  // folded in (destroying emptied spans), exactly as the pre-shard
  // pass-start drain did. Classes never mesh with each other, so no
  // two shard locks are ever held at once.
  // Retirees from every shard visit, reaped with ONE epoch advance at
  // pass end (outside any shard lock) instead of one per shard. Safe
  // because nothing can push to a stash mid-pass: tryFreeUnlocked
  // diverts on MeshInProgress, and every push that raced the flag was
  // waited out by the pass-start quiesce above — so a retiree's
  // pendingFrees count is final once its shard's visit completes.
  InternalVector<MiniHeap *> PassRetired;
  for (int ShardIdx = 0; ShardIdx < kNumShards; ++ShardIdx) {
    Shard &S = Shards[ShardIdx];
    lockShard(ShardIdx);
    drainStashLocked(S);
    const bool MeshThisShard =
        ShardIdx < kNumSizeClasses && sizeClassInfo(ShardIdx).Meshable &&
        (Opts.MaxMeshesPerPass == 0 ||
         MeshedThisPass < Opts.MaxMeshesPerPass);
    if (MeshThisShard) {
      telemetry::Timer ScanTimer;
      Candidates.clear();
      // Only spans at <= 50% occupancy can possibly mesh: two spans
      // each more than half full must collide on some offset
      // (pigeonhole), so probing them is pure waste.
      for (int Bin = 0; Bin < kOccupancyBins; ++Bin)
        for (MiniHeap *MH : S.Bins[Bin])
          if (2 * MH->inUseCount() <= MH->objectCount() &&
              MH->isMeshingCandidate())
            Candidates.push_back(MH);
      if (Candidates.size() >= 2) {
        Pairs.clear();
        uint64_t Probes = 0;
        splitMesher(Candidates, Opts.MeshProbes, MeshRandom, Pairs,
                    &Probes);
        Stats.MeshProbeCount.fetch_add(Probes, std::memory_order_relaxed);
        ScanNs += ScanTimer.elapsedNs();
        PairsFound += Pairs.size();
        for (auto &[A, B] : Pairs) {
          if (Opts.MaxMeshesPerPass != 0 &&
              MeshedThisPass >= Opts.MaxMeshesPerPass)
            break; // Pause bound: the next pass re-finds leftover pairs.
          // Keep the fuller span so fewer objects move.
          MiniHeap *Dst = A->inUseCount() >= B->inUseCount() ? A : B;
          MiniHeap *Src = Dst == A ? B : A;
          telemetry::Timer RemapTimer;
          PagesReleased += meshPairLocked(S, Dst, Src);
          ++MeshedThisPass;
          if (RemapTimer.armed()) {
            const uint64_t Ns = RemapTimer.elapsedNs();
            telemetry::event(telemetry::EventType::kMeshRemap,
                             static_cast<uint16_t>(ShardIdx), Ns);
            telemetry::histRecord(telemetry::kHistMeshRemap, Ns);
          }
        }
      } else {
        ScanNs += ScanTimer.elapsedNs();
      }
    }
    // Take this shard's retirees (from the drain and from meshing)
    // into the pass batch. Moving them out keeps a mid-pass refill or
    // diverted free of this class — whose own reap runs under the
    // shard lock — from double-handling them.
    for (MiniHeap *MH : S.RetiredList)
      PassRetired.push_back(MH);
    S.RetiredList.clear();
    unlockShard(ShardIdx);
  }

  if (!PassRetired.empty()) {
    // The batched reap: one reader-drain covers every span this pass
    // destroyed or meshed away, and no shard lock is held while
    // stragglers are waited out.
    epochSynchronize();
    deleteRetired(PassRetired);
  }

  // Section 4.4.1: pages return to the OS after the dirty budget fills
  // *or whenever meshing is invoked* — a pass is already paying for
  // page-table work, so piggyback the dirty-page flush.
  telemetry::Timer FlushTimer;
  const size_t FlushedPages = Arena.flushDirty();
  if (FlushTimer.armed()) {
    const uint64_t FlushNs = FlushTimer.elapsedNs();
    telemetry::event(telemetry::EventType::kMeshRelease,
                     static_cast<uint16_t>(
                         FlushedPages < UINT16_MAX ? FlushedPages
                                                   : UINT16_MAX),
                     FlushNs);
    telemetry::histRecord(telemetry::kHistMeshRelease, FlushNs);
  }

  const uint64_t Elapsed = monotonicNs() - Start;
  Stats.recordPass(Elapsed, Origin);
  if (telemetry::enabled()) {
    telemetry::event(telemetry::EventType::kMeshScan,
                     static_cast<uint16_t>(
                         PairsFound < UINT16_MAX ? PairsFound : UINT16_MAX),
                     ScanNs);
    telemetry::histRecord(telemetry::kHistMeshScan, ScanNs);
    telemetry::event(telemetry::EventType::kMeshPass,
                     Origin == MeshPassOrigin::Background ? 1 : 0, Elapsed);
    telemetry::histRecord(telemetry::kHistMeshPass, Elapsed);
  }
  LastMeshMs.store(monotonicMs(), std::memory_order_relaxed);
  LastMeshReleased = pagesToBytes(PagesReleased);
  FreedSinceLastMesh.store(false, std::memory_order_relaxed);
  MeshInProgress.store(false, std::memory_order_seq_cst);
  return pagesToBytes(PagesReleased);
}

// The consolidation copy reads (and writes) application objects that
// concurrent threads may touch; serialization is physical — the spans
// are mprotect'ed read-only and a racing writer faults into the
// SIGSEGV write barrier, which waits the pass out. TSan cannot see
// page-protection ordering, so this lives in its own noinline
// function and tsan.supp suppresses exactly this symbol; everything
// else in a mesh pass stays under TSan.
__attribute__((noinline)) size_t
GlobalHeap::meshCopyBarrierProtected(MiniHeap *Dst, MiniHeap *Src,
                                     char *Base) {
  const size_t ObjSize = Src->objectSize();
  size_t Copied = 0;
  Src->bitmap().forEachSet([&](uint32_t Off) {
    memcpy(Dst->ptrForOffset(Off, Base), Src->ptrForOffset(Off, Base),
           ObjSize);
    Copied += ObjSize;
  });
  return Copied;
}

size_t GlobalHeap::meshPairLocked(Shard &S, MiniHeap *Dst, MiniHeap *Src) {
  assert(canMeshPair(Dst, Src) && "meshing an unmeshable pair");
  char *Base = Arena.arenaBase();
  const uint32_t Pages = Src->spanPages();
  WriteBarrier &Barrier = WriteBarrier::instance();

  const auto &SrcSpans = Src->spans();

  // Rollback operations must land: a half-rolled-back pair has no
  // valid state, so each is retried hard (every attempt re-draws the
  // fault injector, which is what lets every-N storms recover) and
  // only persistent failure aborts — the one abort left on the mesh
  // path (see DESIGN.md "Failure policy").
  constexpr int kRollbackRetries = 64;
  auto unprotectSpan = [&](uint32_t Off) {
    for (int Try = 0; Try < kRollbackRetries; ++Try)
      if (Arena.vm().protect(Off, Pages, /*ReadOnly=*/false))
        return;
    fatalError("mesh rollback failed: cannot restore write access to span "
               "at page %u",
               Off);
  };

  // 1. Write barrier: mark every virtual span of the source read-only
  //    so no thread mutates objects while they are being relocated. A
  //    failed protect abandons the pair before anything moved: undo
  //    the protected prefix and leave both spans exactly as found.
  if (Opts.BarrierEnabled) {
    Barrier.beginEpoch();
    for (uint32_t I = 0; I < SrcSpans.size(); ++I) {
      const uint32_t Off = SrcSpans[I];
      if (!Arena.vm().protect(Off, Pages, /*ReadOnly=*/true)) {
        for (uint32_t J = 0; J <= I; ++J)
          unprotectSpan(SrcSpans[J]);
        Barrier.endEpoch();
        Stats.MeshRollbacks.fetch_add(1, std::memory_order_relaxed);
        telemetry::event(telemetry::EventType::kFaultDegrade,
                         telemetry::kDegradeMeshRollback, 0);
        return 0;
      }
    }
  }

  // 2. Consolidate: copy live source objects into the keeper's holes.
  //    Offsets are preserved, so virtual addresses never change. The
  //    keeper's bitmap is merged only after the remap commits: until
  //    then the copied bytes sit in slots still marked free in Dst, so
  //    abandoning the pair needs no undo.
  const size_t Copied = meshCopyBarrierProtected(Dst, Src, Base);

  bool RemapFailed = false;
  {
    // No arena-level lock: every structural operation on these spans is
    // serialized by the heap shard lock this function runs under (see
    // MeshableArena.h "Same-span serialization"); page-table stores are
    // atomic and per-span syscalls race with nothing.
    // 3. Retarget page-table entries so frees of source-span pointers
    //    find the keeper.
    for (uint32_t I = 0; I < SrcSpans.size(); ++I)
      Arena.setOwner(SrcSpans[I], Pages, Dst);

    // 4. Remap every source virtual span onto the keeper's physical
    //    span (atomic per-span; concurrent readers are never
    //    interrupted), then release the source's physical pages to the
    //    OS. On a failed remap, re-point the already-swung spans at
    //    the source's own pages — their contents are untouched, the
    //    copy only wrote into the keeper's holes — and restore
    //    ownership: the pair ends as two valid unmeshed spans.
    const uint32_t SrcPhys = Src->physicalSpanOffset();
    const uint32_t DstPhys = Dst->physicalSpanOffset();
    uint32_t Swung = 0;
    for (; Swung < SrcSpans.size(); ++Swung) {
      telemetry::Timer AliasTimer;
      const bool Ok = Arena.vm().alias(SrcSpans[Swung], DstPhys, Pages);
      if (AliasTimer.armed())
        telemetry::histRecord(telemetry::kHistRemapSyscall,
                              AliasTimer.elapsedNs());
      if (!Ok)
        break;
    }
    if (Swung < SrcSpans.size()) {
      for (uint32_t J = 0; J < Swung; ++J) {
        const uint32_t Off = SrcSpans[J];
        bool Ok = false;
        for (int Try = 0; Try < kRollbackRetries && !Ok; ++Try)
          Ok = Off == SrcPhys ? Arena.vm().resetMapping(Off, Pages)
                              : Arena.vm().alias(Off, SrcPhys, Pages);
        if (!Ok)
          fatalError("mesh rollback failed: cannot re-point span at page "
                     "%u back to its source",
                     Off);
      }
      for (uint32_t I = 0; I < SrcSpans.size(); ++I)
        Arena.setOwner(SrcSpans[I], Pages, Src);
      RemapFailed = true;
    } else {
      // Punch failure inside releaseForMesh is a degradation, not a
      // rollback: the mesh itself committed, the pages just linger
      // until a deferred punch lands.
      Arena.releaseForMesh(Src->sizeClass(), SrcPhys, Pages);
    }
  }

  if (RemapFailed) {
    if (Opts.BarrierEnabled) {
      // The re-pointed spans came back writable from the fresh mmap;
      // the never-swung tail is still read-only. Unprotect everything
      // (idempotent) before dropping the barrier.
      for (uint32_t I = 0; I < SrcSpans.size(); ++I)
        unprotectSpan(SrcSpans[I]);
      Barrier.endEpoch();
    }
    Stats.MeshRollbacks.fetch_add(1, std::memory_order_relaxed);
    telemetry::event(telemetry::EventType::kFaultDegrade,
                     telemetry::kDegradeMeshRollback, 0);
    return 0;
  }

  Dst->bitmap().mergeFrom(Src->bitmap());

  // 5. Bookkeeping: the keeper absorbs the source's virtual spans and
  //    moves to its new occupancy bin; the source MiniHeap dies. A
  //    page-table reader may still hold the stale resolution to Src
  //    (local fast-path lookups don't divert on MeshInProgress), so
  //    its metadata is retired, not deleted — the per-class reap
  //    advances the epoch once and waits those readers out.
  removeFromBinLocked(S, Src);
  removeFromBinLocked(S, Dst);
  Dst->takeSpansFrom(*Src);
  const uint32_t InUse = Dst->inUseCount();
  if (InUse > 0 && InUse < Dst->objectCount())
    insertIntoBinLocked(S, Dst, InUse);
  S.RetiredList.push_back(Src);

  if (Opts.BarrierEnabled)
    Barrier.endEpoch();

  Stats.MeshCount.fetch_add(1, std::memory_order_relaxed);
  Stats.PagesMeshed.fetch_add(Pages, std::memory_order_relaxed);
  Stats.BytesCopied.fetch_add(Copied, std::memory_order_relaxed);
  return Pages;
}

} // namespace mesh
