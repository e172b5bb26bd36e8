//===- MeshableArena.cpp - Sharded span allocation over the arena ----------===//

#include "core/MeshableArena.h"

#include "support/LockRank.h"
#include "support/Log.h"
#include "support/MathUtils.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <sys/mman.h>

namespace mesh {

MeshableArena::MeshableArena(size_t ArenaBytes, size_t MaxDirty)
    : Arena(ArenaBytes), MaxDirtyBytes(MaxDirty) {
  PageTableBytes =
      roundUpPow2Multiple(Arena.arenaPages() * sizeof(PageTable[0]),
                          kPageSize);
  void *Mem = mmap(nullptr, PageTableBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Mem == MAP_FAILED)
    fatalError("page table mmap failed: %s", strerror(errno));
  PageTable = static_cast<std::atomic<MiniHeap *> *>(Mem);
}

MeshableArena::~MeshableArena() {
  if (PageTable != nullptr)
    munmap(PageTable, PageTableBytes);
}

void MeshableArena::lockShard(int Shard) const {
  assert(Shard >= 0 && Shard < kNumArenaShards && "arena shard out of range");
  lockrank::acquireArenaShard(Shard);
  Shards[Shard].Lock.lock();
  Shards[Shard].LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
}

void MeshableArena::unlockShard(int Shard) const {
  lockrank::releaseArenaShard(Shard);
  Shards[Shard].Lock.unlock();
}

void MeshableArena::lockArena() const {
  lockrank::acquireArenaLock();
  ArenaLock.lock();
}

void MeshableArena::unlockArena() const {
  lockrank::releaseArenaLock();
  ArenaLock.unlock();
}

int MeshableArena::binForPages(uint32_t Pages) {
  if (!isPowerOfTwo(Pages) || Pages > 32)
    return -1;
  return static_cast<int>(log2Floor(Pages));
}

void MeshableArena::binCleanLocked(uint32_t PageOff, uint32_t Pages) {
  const int Bin = binForPages(Pages);
  if (Bin >= 0)
    CleanBins[Bin].push_back(PageOff);
  else
    OddCleanSpans.push_back(Span{PageOff, Pages});
}

void MeshableArena::binClean(uint32_t PageOff, uint32_t Pages) {
  lockArena();
  binCleanLocked(PageOff, Pages);
  unlockArena();
}

uint32_t MeshableArena::popDirtyLocked(ArenaShard &S, uint32_t Pages) {
  // Back-to-front: a class shard's entries all share the class's span
  // length, so the scan terminates immediately on the hot path; only
  // the large shard (mixed lengths, punch-failure leftovers) ever
  // walks further.
  for (size_t I = S.DirtySpans.size(); I > 0; --I) {
    if (S.DirtySpans[I - 1].Pages != Pages)
      continue;
    const uint32_t Off = S.DirtySpans[I - 1].PageOff;
    S.DirtySpans[I - 1] = S.DirtySpans.back();
    S.DirtySpans.pop_back();
    S.DirtyPages -= Pages;
    TotalDirtyPages.fetch_sub(Pages, std::memory_order_relaxed);
    return Off;
  }
  return kInvalidSpanOff;
}

size_t MeshableArena::pushDirtyLocked(ArenaShard &S, uint32_t PageOff,
                                      uint32_t Pages) {
  S.DirtySpans.push_back(Span{PageOff, Pages});
  S.DirtyPages += Pages;
  return TotalDirtyPages.fetch_add(Pages, std::memory_order_relaxed) + Pages;
}

uint32_t MeshableArena::allocSpan(int Shard, uint32_t Pages, bool *IsClean) {
  assert(Shard >= 0 && Shard < kNumArenaShards && "arena shard out of range");
  assert(Pages > 0 && "zero-length span request");
  // Prefer the shard's dirty spans: their pages are already committed,
  // so reuse costs nothing (Section 4.4.1: used pages are likely
  // needed soon) — and needs no commit, which is what lets the heap
  // keep serving from recycled memory while fresh commits are being
  // refused. This is the whole-shard-local hot path: no cross-class
  // state is touched. (On the large shard the dirty spans are
  // punch-failure leftovers of mixed lengths, matched exactly.)
  lockShard(Shard);
  const uint32_t Off = popDirtyLocked(Shards[Shard], Pages);
  unlockShard(Shard);
  if (Off != kInvalidSpanOff) {
    *IsClean = false;
    return Off;
  }
  return allocCleanSpan(Pages, IsClean);
}

uint32_t MeshableArena::allocCleanSpan(uint32_t Pages, bool *IsClean) {
  lockArena();
  const int Bin = binForPages(Pages);
  if (Bin >= 0) {
    if (!CleanBins[Bin].empty()) {
      const uint32_t Off = CleanBins[Bin].back();
      if (!Arena.commit(Off, Pages)) {
        unlockArena();
        return kInvalidSpanOff; // span stays binned; nothing leaked
      }
      CleanBins[Bin].pop_back();
      unlockArena();
      *IsClean = true;
      return Off;
    }
  } else {
    // Off-bin lengths (odd class geometries, large objects): exact-fit
    // from recycled spans.
    for (size_t I = 0; I < OddCleanSpans.size(); ++I) {
      if (OddCleanSpans[I].Pages == Pages) {
        const uint32_t Off = OddCleanSpans[I].PageOff;
        if (!Arena.commit(Off, Pages)) {
          unlockArena();
          return kInvalidSpanOff; // entry stays in place
        }
        OddCleanSpans[I] = OddCleanSpans.back();
        OddCleanSpans.pop_back();
        unlockArena();
        *IsClean = true;
        return Off;
      }
    }
  }
  // Extend the bump frontier. Exhaustion is an allocation failure, not
  // a crash: the caller turns kInvalidSpanOff into nullptr/ENOMEM.
  const size_t Hwm = HighWaterPage.load(std::memory_order_relaxed);
  if (Hwm + Pages > Arena.arenaPages()) {
    unlockArena();
    return kInvalidSpanOff;
  }
  const uint32_t Off = static_cast<uint32_t>(Hwm);
  if (!Arena.commit(Off, Pages)) {
    unlockArena();
    return kInvalidSpanOff;
  }
  HighWaterPage.store(Hwm + Pages, std::memory_order_release);
  unlockArena();
  *IsClean = true;
  return Off;
}

bool MeshableArena::timedRelease(uint32_t PageOff, uint32_t Pages) {
  telemetry::Timer T;
  const bool Ok = Arena.release(PageOff, Pages);
  if (T.armed())
    telemetry::histRecord(telemetry::kHistPunchSyscall, T.elapsedNs());
  return Ok;
}

void MeshableArena::notePunchFallback() {
  PunchFallbacks.fetch_add(1, std::memory_order_relaxed);
  telemetry::event(telemetry::EventType::kFaultDegrade,
                   telemetry::kDegradePunchFallback, 0);
}

void MeshableArena::freeDirtySpan(int Shard, uint32_t PageOff, uint32_t Pages) {
  assert(Shard >= 0 && Shard < kNumArenaShards && "arena shard out of range");
  lockShard(Shard);
  const size_t Total = pushDirtyLocked(Shards[Shard], PageOff, Pages);
  if (pagesToBytes(Total) > MaxDirtyBytes) {
    // Budget trip: flush only this shard. The just-pushed span is
    // always part of the sweep, so every over-budget push releases
    // pages — the total stays bounded without a cross-shard sweep
    // (the mesh pass's global flush covers idle shards).
    telemetry::event(telemetry::EventType::kDirtyTrip,
                     static_cast<uint16_t>(Shard), pagesToBytes(Total));
    flushShardLocked(Shards[Shard], /*DeferFailures=*/false);
  }
  unlockShard(Shard);
}

void MeshableArena::freeReleasedSpan(int Shard, uint32_t PageOff,
                                     uint32_t Pages) {
  assert(Shard >= 0 && Shard < kNumArenaShards && "arena shard out of range");
  if (timedRelease(PageOff, Pages)) {
    binClean(PageOff, Pages);
    return;
  }
  notePunchFallback();
  // A failed punch leaves the contents intact, so the span is dirty,
  // never clean (clean spans must read back as zero — calloc skips
  // its memset on them). No flush trigger here: it would retry the
  // same punch immediately.
  lockShard(Shard);
  pushDirtyLocked(Shards[Shard], PageOff, Pages);
  unlockShard(Shard);
}

void MeshableArena::releaseForMesh(int Class, uint32_t PageOff,
                                   uint32_t Pages) {
  if (timedRelease(PageOff, Pages))
    return;
  notePunchFallback();
  // The virtual span at PageOff now aliases the keeper, so there is no
  // identity mapping to MADV_DONTNEED through, and the span cannot be
  // reused (it is still owned by the retired source MiniHeap). Park
  // it: not reusable until freeAliasSpan recycles the virtual span.
  lockShard(Class);
  Shards[Class].Deferred.push_back(DeferredSpan{PageOff, Pages,
                                                /*NeedsReset=*/false,
                                                /*NeedsPunch=*/true,
                                                /*Reusable=*/false});
  unlockShard(Class);
}

void MeshableArena::freeAliasSpan(int Class, uint32_t PageOff,
                                  uint32_t Pages) {
  lockShard(Class);
  auto &Deferred = Shards[Class].Deferred;
  size_t DI = Deferred.size();
  for (size_t I = 0; I < Deferred.size(); ++I) {
    if (Deferred[I].PageOff == PageOff) {
      DI = I;
      break;
    }
  }
  if (!Arena.resetMapping(PageOff, Pages)) {
    // Still aliased to the keeper — unusable until the remap lands.
    notePunchFallback();
    if (DI < Deferred.size()) {
      Deferred[DI].NeedsReset = true;
      Deferred[DI].Reusable = true;
    } else {
      Deferred.push_back(DeferredSpan{PageOff, Pages,
                                      /*NeedsReset=*/true,
                                      /*NeedsPunch=*/false,
                                      /*Reusable=*/true});
    }
    unlockShard(Class);
    return;
  }
  if (DI < Deferred.size()) {
    // The span's own file pages still await a deferred punch (the mesh
    // that created this alias could not punch them), so they are not
    // holes and the span is not demand-zero yet. Hand it back to the
    // deferred list; the punch retry rebins it.
    Deferred[DI].NeedsReset = false;
    Deferred[DI].Reusable = true;
    unlockShard(Class);
    return;
  }
  unlockShard(Class);
  // The span's own file pages were punched when it was meshed away;
  // restoring the identity mapping yields a demand-zero span.
  binClean(PageOff, Pages);
}

size_t MeshableArena::flushShardLocked(ArenaShard &S, bool DeferFailures) {
  size_t Released = 0;
  // Rebinning a now-clean span takes ArenaLock (binClean); rank permits
  // nesting it under a shard lock. Deferred spans first: punches and
  // remaps owed from earlier degraded operations. Each retry re-draws
  // the fault injector, so an every-N storm drains this list once
  // faults clear.
  for (size_t I = 0; I < S.Deferred.size();) {
    DeferredSpan &D = S.Deferred[I];
    if (D.NeedsReset && Arena.resetMapping(D.PageOff, D.Pages))
      D.NeedsReset = false;
    if (D.NeedsPunch && timedRelease(D.PageOff, D.Pages)) {
      D.NeedsPunch = false;
      Released += D.Pages;
    }
    if (!D.NeedsReset && !D.NeedsPunch) {
      const DeferredSpan Done = D;
      S.Deferred[I] = S.Deferred.back();
      S.Deferred.pop_back();
      if (Done.Reusable)
        binClean(Done.PageOff, Done.Pages);
      continue; // re-examine the swapped-in entry
    }
    ++I;
  }
  size_t Keep = 0;
  for (size_t I = 0; I < S.DirtySpans.size(); ++I) {
    const Span Sp = S.DirtySpans[I];
    if (timedRelease(Sp.PageOff, Sp.Pages)) {
      binClean(Sp.PageOff, Sp.Pages);
      Released += Sp.Pages;
      S.DirtyPages -= Sp.Pages;
      TotalDirtyPages.fetch_sub(Sp.Pages, std::memory_order_relaxed);
      continue;
    }
    notePunchFallback();
    if (DeferFailures) {
      // Pre-fork flush: the dirty set must reach zero (the child's
      // rebuild replays only owned spans), so park the failure on
      // the deferred list instead of keeping it dirty.
      Arena.dropResident(Sp.PageOff, Sp.Pages);
      S.Deferred.push_back(DeferredSpan{Sp.PageOff, Sp.Pages,
                                        /*NeedsReset=*/false,
                                        /*NeedsPunch=*/true,
                                        /*Reusable=*/true});
      S.DirtyPages -= Sp.Pages;
      TotalDirtyPages.fetch_sub(Sp.Pages, std::memory_order_relaxed);
    } else {
      // Keep it dirty — still committed, still reusable as-is.
      S.DirtySpans[Keep++] = Sp;
    }
  }
  S.DirtySpans.resize(Keep);
  assert((!DeferFailures || S.DirtyPages == 0) &&
         "deferring flush left dirty pages on the shard");
  return Released;
}

size_t MeshableArena::flushDirty(bool DeferFailures) {
  size_t Released = 0;
  // One shard at a time — the flush never holds two shard locks, so
  // it cannot rendezvous-deadlock with concurrent per-class traffic.
  for (int S = 0; S < kNumArenaShards; ++S) {
    lockShard(S);
    Released += flushShardLocked(Shards[S], DeferFailures);
    unlockShard(S);
  }
  return Released;
}

void MeshableArena::resetDeferredAfterFork() {
  // Pass 2 of the child's arena rebuild swung the whole reservation
  // back to the identity mapping, satisfying every pending remap.
  // Pending punches are kept on purpose: ownerless spans were not
  // copied into the fresh file, so the pages are already holes and the
  // retried punch (trivially succeeding) re-syncs the inherited
  // committed-page overcount.
  for (int S = 0; S < kNumArenaShards; ++S)
    for (size_t I = 0; I < Shards[S].Deferred.size(); ++I)
      Shards[S].Deferred[I].NeedsReset = false;
}

void MeshableArena::lockAllShards() {
  for (int S = 0; S < kNumArenaShards; ++S)
    lockShard(S);
  lockArena();
}

void MeshableArena::unlockAllShards() {
  unlockArena();
  for (int S = kNumArenaShards - 1; S >= 0; --S)
    unlockShard(S);
}

size_t MeshableArena::dirtyPagesForShard(int Shard) const {
  lockShard(Shard);
  const size_t Pages = Shards[Shard].DirtyPages;
  unlockShard(Shard);
  return Pages;
}

void MeshableArena::setOwner(uint32_t PageOff, uint32_t Pages,
                             MiniHeap *Owner) {
  for (uint32_t I = 0; I < Pages; ++I)
    PageTable[PageOff + I].store(Owner, std::memory_order_release);
}

} // namespace mesh
