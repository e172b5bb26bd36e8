//===- MeshableArena.h - Sharded span allocation over the arena -*- C++ -*-===//
///
/// \file
/// The meshable arena from paper Section 4.4.1: the global heap's
/// source of spans, plus the mapping from arena page offsets to owning
/// MiniHeap pointers used for constant-time pointer lookup (Section
/// 4.4.4).
///
/// Span state is sharded per size class, mirroring the global heap's
/// shard map: each class shard owns the dirty spans of its class's
/// fixed span length, its slice of the deferred punch/remap work, and
/// its own spin lock, so span recycling for different classes never
/// contends. A 25th shard serves large (singleton) spans the same way.
/// Two kinds of state stay global, under ArenaLock (the innermost
/// arena rank):
///
///   - the clean reserve (punched, demand-zero spans, binned by
///     length): clean spans are class-agnostic by construction, and
///     keeping them shared preserves cross-class reuse;
///   - the bump frontier and its high-water mark.
///
/// The hot recycling loop — class C frees a span dirty, class C
/// reallocates it — runs entirely under arena shard C's lock. Only a
/// recycling *miss* (no dirty span of the right length) falls through
/// to ArenaLock for a clean span or frontier growth.
///
/// Used pages are not returned to the OS immediately (reclamation is
/// expensive and reuse is likely); only after kMaxDirtyBytes of dirty
/// pages accumulate process-wide — tracked by one atomic counter —
/// or when meshing releases a span, does the arena punch holes in the
/// backing file. A budget trip flushes only the tripping shard: every
/// push past the budget punches at least the just-pushed span, so the
/// total stays bounded without a stop-the-world sweep.
///
/// Locking: all calls are internally synchronized. Lock rank (Debug
/// enforced, support/LockRank.h): heap shards -> arena shards
/// ascending -> ArenaLock. Per-span syscalls (commit, punch, remap)
/// need no arena lock of their own — all structural movement of a
/// class-C span happens under heap shard C's lock, so no two threads
/// ever operate on the same span concurrently; the arena shard locks
/// exist because different spans of one class share the shard's lists.
/// Page-table reads are atomic so the free fast path may consult them
/// with no lock (epoch-protected dereference).
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_MESHABLEARENA_H
#define MESH_CORE_MESHABLEARENA_H

#include "arena/MemfdArena.h"
#include "core/SizeClass.h"
#include "support/Annotations.h"
#include "support/Common.h"
#include "support/InternalVector.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>

namespace mesh {

class MiniHeap;

class MeshableArena {
public:
  /// Shard count: one per size class plus the large-span shard.
  /// GlobalHeap's shard map is defined from these two constants.
  static constexpr int kNumArenaShards = kNumSizeClasses + 1;
  /// Index of the shard serving large (singleton) spans.
  static constexpr int kLargeArenaShard = kNumSizeClasses;
  static_assert(kNumArenaShards <= 32,
                "the debug held-shard masks (heap and arena) are uint32_t; "
                "widen them (and re-audit the lock-order diagnostics) "
                "before adding shards");

  explicit MeshableArena(size_t ArenaBytes, size_t MaxDirtyBytes);
  ~MeshableArena();

  MeshableArena(const MeshableArena &) = delete;
  MeshableArena &operator=(const MeshableArena &) = delete;

  MemfdArena &vm() { return Arena; }
  char *arenaBase() const { return Arena.base(); }
  bool contains(const void *Ptr) const { return Arena.contains(Ptr); }

  /// Sentinel returned by the span allocators when the arena cannot
  /// produce a span (frontier exhausted, or page commit refused under
  /// fault injection). Callers translate it into nullptr/ENOMEM.
  static constexpr uint32_t kInvalidSpanOff = ~0u;

  /// Allocates a span of \p Pages pages from arena shard \p Shard (a
  /// size class, or kLargeArenaShard), or kInvalidSpanOff on resource
  /// exhaustion (nothing is leaked: a span whose commit fails stays
  /// binned). The shard's dirty spans of exactly \p Pages pages are
  /// preferred (already committed, reuse costs nothing); a miss falls
  /// through to the shared clean reserve / frontier under ArenaLock.
  /// Sets \p IsClean true when the span is known demand-zero; dirty
  /// spans may contain stale bytes and callers must not assume zero.
  /// Callers must hold heap shard \p Shard's lock (the fork quiesce
  /// relies on it: a committed-but-unowned span must not be visible at
  /// the fork instant).
  uint32_t allocSpan(int Shard, uint32_t Pages, bool *IsClean);

  /// Returns a span whose physical pages are still live to shard
  /// \p Shard's dirty list; flushes the shard when the process-wide
  /// dirty budget trips.
  void freeDirtySpan(int Shard, uint32_t PageOff, uint32_t Pages);

  /// Punches the span's pages immediately (non-meshable classes and
  /// large objects, paper Section 4: "the pages are directly freed to
  /// the OS"). A failed punch degrades: the span parks on shard
  /// \p Shard's dirty list — never the clean reserve, whose spans must
  /// read back as zero — and the punch is retried at the shard's next
  /// flush.
  void freeReleasedSpan(int Shard, uint32_t PageOff, uint32_t Pages);

  /// Punches the meshed-away source span's file pages after a
  /// successful mesh of class \p Class. Unlike the freeReleased paths
  /// the span's *virtual* range now aliases the keeper, so a failed
  /// punch only defers (no rebinning, no MADV_DONTNEED — that would
  /// drop the keeper's resident pages through the alias).
  void releaseForMesh(int Class, uint32_t PageOff, uint32_t Pages);

  /// Recycles a class-\p Class virtual span that had been meshed onto
  /// another span: restores its identity mapping (its own file pages
  /// are holes) and hands it to the clean reserve. Degrades by
  /// deferring on the class shard when the remap fails or when the
  /// span's own file pages still await a deferred punch.
  void freeAliasSpan(int Class, uint32_t PageOff, uint32_t Pages);

  /// Punches every dirty span now, shard by shard (one shard lock at a
  /// time), retrying deferred punches and identity remaps first.
  /// Returns pages released. With \p DeferFailures (the pre-fork
  /// flush), dirty spans whose punch fails move to the deferred list
  /// so dirtyPages() reaches zero — the fork child's rebuild replays
  /// only owned spans and requires an empty dirty set.
  size_t flushDirty(bool DeferFailures = false);

  /// flushDirty for the fork-prepare path, where the caller already
  /// holds every arena shard lock plus ArenaLock (lockAllShards):
  /// re-acquiring them here would self-deadlock on the non-recursive
  /// spin locks.
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: runs under locks acquired by a
  /// different function (lockAllShards), a cross-function hold TSA
  /// cannot track.
  size_t flushDirtyAssumeLocked(bool DeferFailures = false)
      MESH_NO_THREAD_SAFETY_ANALYSIS;

  /// Fork-child fixup for the deferred lists: the fresh-file rebuild
  /// restored every identity mapping (pass 2), so pending remaps are
  /// satisfied. Pending punches are deliberately kept: the child's
  /// file already has holes there (ownerless spans are not copied), so
  /// the retried punch trivially succeeds and re-syncs the inherited
  /// committed-page overcount. Runs in the atfork child handler —
  /// allocates nothing, takes no locks.
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: touches Lock-guarded fields with
  /// the locks inherited held from the parent's lockAllShards — a
  /// cross-process hold no analysis can see.
  void resetDeferredAfterFork() MESH_NO_THREAD_SAFETY_ANALYSIS;

  /// Fork quiesce: every arena shard lock in ascending order, then
  /// ArenaLock. Called by GlobalHeap::lockForFork between the heap
  /// shards and the leaf locks, so the child inherits all arena state
  /// mid-critical-section-free.
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: loops over the shard lock array
  /// and leaves every lock held for the caller — both inexpressible in
  /// TSA. LockRank enforces the ascending order at runtime.
  void lockAllShards() MESH_NO_THREAD_SAFETY_ANALYSIS;
  void unlockAllShards() MESH_NO_THREAD_SAFETY_ANALYSIS;

  /// Punch/remap operations that failed and degraded (faults.punch_fallbacks).
  uint64_t punchFallbackCount() const {
    return PunchFallbacks.load(std::memory_order_relaxed);
  }

  /// Zeroes the fallback counter (the faults.reset mallctl leaf).
  void resetPunchFallbacks() {
    PunchFallbacks.store(0, std::memory_order_relaxed);
  }

  /// Page-table maintenance: records \p Owner for all \p Pages pages
  /// starting at \p PageOff (nullptr clears). Takes no arena lock —
  /// the span's structural owner (heap shard lock, or the fresh-span
  /// invisibility argument for allocations) serializes writers, and
  /// readers go through the atomic loads below.
  void setOwner(uint32_t PageOff, uint32_t Pages, MiniHeap *Owner);

  /// Constant-time lookup of the MiniHeap owning \p Ptr, or nullptr.
  MiniHeap *ownerOf(const void *Ptr) const {
    if (!Arena.contains(Ptr))
      return nullptr;
    return PageTable[Arena.pageForPtr(Ptr)].load(std::memory_order_acquire);
  }

  MiniHeap *ownerOfPage(size_t PageOff) const {
    return PageTable[PageOff].load(std::memory_order_acquire);
  }

  /// Pages currently backed by physical memory (the RSS analogue).
  size_t committedPages() const { return Arena.committedPages(); }
  /// Kernel ground truth: file blocks actually allocated to the arena
  /// memfd, in pages (observability / accounting-agreement checks).
  size_t kernelFilePages() const { return Arena.kernelFilePages(); }
  /// Process-wide dirty total (the budget counter).
  size_t dirtyPages() const {
    return TotalDirtyPages.load(std::memory_order_relaxed);
  }
  /// High-water mark of the bump frontier, in pages. Lock-free read:
  /// the footprint sampler and the fork walk consult it without
  /// ArenaLock.
  size_t frontierPages() const {
    return HighWaterPage.load(std::memory_order_acquire);
  }

  /// One shard's share of the dirty total (test / observability;
  /// takes the shard lock).
  size_t dirtyPagesForShard(int Shard) const;

  /// Times shard \p Shard's lock has been acquired. Always compiled
  /// (relaxed counter): ArenaShardTest pins lock disjointness with it
  /// in every build mode, not just Debug.
  uint64_t shardLockAcquisitions(int Shard) const {
    return Shards[Shard].LockAcquisitions.load(std::memory_order_relaxed);
  }

  /// Test hooks pinning the arena lock-ordering discipline (death
  /// tests only; never use in production paths).
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: the death tests violate the rank
  /// and abandon held locks inside EXPECT_DEATH on purpose; these
  /// hooks belong to the runtime checker (LockRank), not TSA.
  void lockShardForTest(int Shard) MESH_NO_THREAD_SAFETY_ANALYSIS {
    lockShard(Shard);
  }
  void unlockShardForTest(int Shard) MESH_NO_THREAD_SAFETY_ANALYSIS {
    unlockShard(Shard);
  }
  void lockArenaForTest() MESH_NO_THREAD_SAFETY_ANALYSIS { lockArena(); }
  void unlockArenaForTest() MESH_NO_THREAD_SAFETY_ANALYSIS {
    unlockArena();
  }

private:
  static constexpr uint32_t kNumLenBins = 6; // lengths 1,2,4,8,16,32
  static int binForPages(uint32_t Pages);

  struct Span {
    uint32_t PageOff;
    uint32_t Pages;
  };

  /// A span parked because a punch or identity remap failed. The span
  /// is in no list while parked; the shard's flush retries the pending
  /// operations and rebins it (clean — both punch and remap done mean
  /// demand-zero) once Reusable.
  struct DeferredSpan {
    uint32_t PageOff;
    uint32_t Pages;
    bool NeedsReset; ///< Identity remap still owed (failed freeAliasSpan).
    bool NeedsPunch; ///< Hole punch still owed (failed release).
    bool Reusable;   ///< False while the virtual span is still a live
                     ///< mesh alias; freeAliasSpan flips it.
  };

  /// One size class's slice of the arena's span state (the large
  /// shard reuses the same shape; its DirtySpans mix lengths and are
  /// matched exactly). All fields except the counter are guarded by
  /// Lock. Cache-line aligned so two shards' locks never false-share.
  struct alignas(64) ArenaShard {
    mutable SpinLock Lock;
    /// Recently used spans whose physical pages are still committed.
    /// Class shards hold a single span length, so any entry serves; a
    /// failed punch can park an off-length span here too, hence the
    /// explicit length per entry.
    InternalVector<Span> DirtySpans MESH_GUARDED_BY(Lock);
    /// Spans with punches/remaps still owed (see DeferredSpan).
    InternalVector<DeferredSpan> Deferred MESH_GUARDED_BY(Lock);
    /// Pages across DirtySpans (this shard's share of the budget).
    size_t DirtyPages MESH_GUARDED_BY(Lock) = 0;
    mutable std::atomic<uint64_t> LockAcquisitions{0};
  };

  void lockShard(int Shard) const MESH_ACQUIRE(Shards[Shard].Lock);
  void unlockShard(int Shard) const MESH_RELEASE(Shards[Shard].Lock);
  void lockArena() const MESH_ACQUIRE(ArenaLock);
  void unlockArena() const MESH_RELEASE(ArenaLock);

  /// Clean-reserve / frontier allocation (the recycling-miss path).
  /// Takes ArenaLock, so callers must not already hold it.
  uint32_t allocCleanSpan(uint32_t Pages, bool *IsClean)
      MESH_EXCLUDES(ArenaLock);

  /// Files \p PageOff into the clean bins (pow2) or odd-span list.
  void binCleanLocked(uint32_t PageOff, uint32_t Pages)
      MESH_REQUIRES(ArenaLock);

  /// Pops a dirty span of exactly \p Pages pages, or returns
  /// kInvalidSpanOff.
  uint32_t popDirtyLocked(ArenaShard &S, uint32_t Pages)
      MESH_REQUIRES(S.Lock);

  /// Parks \p PageOff on \p S's dirty list; returns the new
  /// process-wide dirty total (budget check).
  size_t pushDirtyLocked(ArenaShard &S, uint32_t PageOff, uint32_t Pages)
      MESH_REQUIRES(S.Lock);

  /// The per-shard flush: deferred retries, then the dirty sweep.
  /// Caller holds \p S.Lock; \p ArenaLocked says whether the caller
  /// already holds ArenaLock (fork path) or this must take it per
  /// rebin — conditional locking the analysis cannot model, hence
  /// MESH_NO_THREAD_SAFETY_ANALYSIS on top of the REQUIRES contract
  /// (which call sites still check).
  size_t flushShardLocked(ArenaShard &S, bool DeferFailures,
                          bool ArenaLocked)
      MESH_REQUIRES(S.Lock) MESH_NO_THREAD_SAFETY_ANALYSIS;

  /// Arena.release with the hole-punch syscall timed into the
  /// telemetry punch_syscall histogram.
  bool timedRelease(uint32_t PageOff, uint32_t Pages);

  /// Counts one punch/remap degradation (PunchFallbacks + the
  /// kFaultDegrade flight-recorder event).
  void notePunchFallback();

  MemfdArena Arena;
  std::atomic<MiniHeap *> *PageTable = nullptr;
  size_t PageTableBytes = 0;

  ArenaShard Shards[kNumArenaShards];

  /// The shared tail of the span hierarchy: clean reserve + frontier.
  /// (The frontier high-water itself is the atomic below — sampled
  /// lock-free by the footprint walk — but it only advances under
  /// ArenaLock.)
  mutable SpinLock ArenaLock;
  InternalVector<uint32_t> CleanBins[kNumLenBins] MESH_GUARDED_BY(ArenaLock);
  InternalVector<Span> OddCleanSpans MESH_GUARDED_BY(ArenaLock);

  size_t MaxDirtyBytes;
  std::atomic<size_t> TotalDirtyPages{0};
  std::atomic<size_t> HighWaterPage{0};
  std::atomic<uint64_t> PunchFallbacks{0};
};

} // namespace mesh

#endif // MESH_CORE_MESHABLEARENA_H
