//===- GlobalHeap.h - Shared heap state and meshing coordinator -*- C++ -*-===//
///
/// \file
/// The global heap (paper Section 4.4): allocates MiniHeaps for
/// thread-local heaps from occupancy-ordered bins, serves large-object
/// allocations via singleton MiniHeaps, performs non-local frees, and
/// coordinates meshing.
///
/// Locking discipline: structural state is sharded by size class. Each
/// shard owns its occupancy bins, its slice of the pending-free stash,
/// its retired-metadata list, and its own spin lock, so refills, re-bins
/// and drains for different classes never contend. A 25th shard serves
/// large (singleton) allocations. The arena mirrors the shard map with
/// its own per-class locks (span recycling, deferred punch/remap work;
/// see MeshableArena.h), leaving three further locks here:
///
///   - MeshLock     serializes mesh passes and the rate-limiter state.
///   - ArenaLock    (inside MeshableArena) guards the shared clean
///                  reserve and the bump frontier — the innermost rank.
///   - EpochSyncLock serializes Epoch::synchronize callers (leaf).
///
/// Lock order: MeshLock -> heap shard locks in ascending index ->
/// arena shard locks in ascending index -> ArenaLock; EpochSyncLock is
/// a leaf acquired under either a shard lock (retired reaps) or
/// MeshLock (the pass-start quiesce), never both. Debug builds enforce
/// the full rank order with per-thread held-lock masks
/// (support/LockRank.h).
///
/// Non-local frees follow the paper's design: an epoch-protected
/// page-table read plus one atomic bitmap update, no lock. Re-binning
/// and empty-span destruction are deferred to a lock-held drain of the
/// owning shard's pending stash; MiniHeap destruction advances the
/// epoch and waits out in-flight readers. A mesh pass quiesces the
/// lock-free path (MeshInProgress + one epoch synchronize), then visits
/// shards strictly in ascending order, meshing each class under its own
/// lock. DESIGN.md ("sharding the allocation path") has the protocol.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_GLOBALHEAP_H
#define MESH_CORE_GLOBALHEAP_H

#include "core/MeshStats.h"
#include "core/MeshableArena.h"
#include "core/MiniHeap.h"
#include "core/Options.h"
#include "core/SizeClass.h"
#include "support/Annotations.h"
#include "support/Epoch.h"
#include "support/InternalVector.h"
#include "support/Rng.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstddef>

namespace mesh {

/// Receiver for non-blocking mesh-pass requests — implemented by the
/// background mesher (runtime/BackgroundMesher.h). requestMeshPass()
/// must never touch heap locks and must stay cheap on the steady
/// path: it is called from the allocation refill path and from
/// free()'s empty-span transition. (The one heavier excursion — the
/// once-per-fork deferred thread restart — takes only the fork
/// registry lock and pthread_create, still no heap locks.)
class MeshRequestSink {
public:
  virtual ~MeshRequestSink() = default;
  virtual void requestMeshPass() = 0;
};

class GlobalHeap {
public:
  explicit GlobalHeap(const MeshOptions &Opts);
  ~GlobalHeap();

  GlobalHeap(const GlobalHeap &) = delete;
  GlobalHeap &operator=(const GlobalHeap &) = delete;

  char *arenaBase() const { return Arena.arenaBase(); }
  bool contains(const void *Ptr) const { return Arena.contains(Ptr); }
  /// MeshProbes and MaxMeshesPerPass can change at run time; read them
  /// through meshProbes() / maxMeshesPerPass() instead.
  const MeshOptions &options() const { return Opts; }

  /// Selects (or creates) a MiniHeap for \p SizeClass and marks it
  /// attached. Partially full spans are reused first: the fullest
  /// non-empty occupancy bin is scanned and a random member chosen
  /// (Section 3.1). Touches only \p SizeClass's shard (plus the arena
  /// lock when a fresh span must be carved), so refills for different
  /// classes proceed in parallel. Returns nullptr — no span carved, no
  /// locks held, faults.oom_returns ticked — when the arena cannot
  /// produce a fresh span (commit refused or frontier exhausted).
  MiniHeap *allocMiniHeapForClass(int SizeClass);

  /// Returns a MiniHeap previously attached by a thread-local heap
  /// (whose shuffle vector has already surrendered its cached offsets).
  /// Re-bins it, or destroys it when empty.
  void releaseMiniHeap(MiniHeap *MH);

  /// Large-object allocation (> 16 KiB): rounds up to whole pages and
  /// tracks the span with a singleton MiniHeap (Section 4.4.3).
  void *largeAlloc(size_t Bytes) { return largeAllocZeroed(Bytes, nullptr); }

  /// Like largeAlloc, but additionally reports whether the span is
  /// known demand-zero (freshly committed memfd pages, never dirtied) —
  /// the calloc path skips its memset when \p WasZeroed comes back
  /// true. \p WasZeroed may be null. Returns nullptr on resource
  /// exhaustion (request larger than the arena, commit refused, or
  /// frontier exhausted); the shim layer turns that into ENOMEM.
  void *largeAllocZeroed(size_t Bytes, bool *WasZeroed);

  /// Non-local free (Section 4.4.4): epoch-protected constant-time
  /// owner lookup plus one atomic bitmap update — no lock in the common
  /// case. Re-binning is queued on the owning shard's pending stash
  /// and drained by the next refill or mesh pass of that class; the
  /// empty-span transition drains immediately under the shard lock so
  /// reclaimed pages never wait on an idle class.
  /// Large-object frees and frees that race a mesh pass fall back to a
  /// shard-locked path. Invalid and double frees are detected and
  /// discarded with a warning.
  void free(void *Ptr);

  /// Usable size of \p Ptr (its size-class size, or the whole span for
  /// large objects); 0 when \p Ptr is not a live Mesh pointer.
  size_t usableSize(const void *Ptr) const;

  /// Owning MiniHeap, or nullptr (lock-free page-table read). Callers
  /// that dereference the result without holding the owning shard's
  /// lock must be inside a miniheapEpoch() section, which holds off
  /// destruction — enforced at compile time: an epoch-free page-table
  /// peek through this accessor does not build under -Wthread-safety.
  MiniHeap *miniheapFor(const void *Ptr) const
      MESH_REQUIRES_SHARED(MiniHeapEpoch) {
    return Arena.ownerOf(Ptr);
  }

  /// Identity-only page-table read: the returned pointer may be
  /// compared against a known-live MiniHeap but must NEVER be
  /// dereferenced — without an epoch section the metadata may already
  /// be retired. Used by the thread-local free dispatch, whose
  /// attached-MiniHeap equality check needs no lifetime guarantee.
  MiniHeap *miniheapIdentityFor(const void *Ptr) const {
    return Arena.ownerOf(Ptr);
  }

  /// The epoch guarding MiniHeap metadata lifetime (see free()).
  Epoch &miniheapEpoch() const MESH_RETURN_CAPABILITY(MiniHeapEpoch) {
    return MiniHeapEpoch;
  }

  /// Runs a meshing pass immediately, ignoring the rate limiter.
  /// \returns bytes of physical memory released. MESH_EXCLUDES encodes
  /// the top of the lock rank: a pass acquires MeshLock first, so no
  /// caller may already hold it (or any lower-rank lock).
  size_t meshNow() MESH_EXCLUDES(MeshLock);

  /// Rate-limited meshing trigger (Section 4.5), called after refills
  /// and empty-span transitions. Must not be called while holding any
  /// shard lock (a pass acquires every shard in order). With a request
  /// sink registered the slow half is delegated: after the cheap
  /// rate-limit precheck this degenerates to one atomic flag write that
  /// wakes the background mesher.
  void maybeMesh() MESH_EXCLUDES(MeshLock);

  /// Registers (or, with nullptr, removes) the background mesher as the
  /// receiver of maybeMesh() triggers. Clearing the pointer does not by
  /// itself make the old sink deletable: a mutator may have loaded it
  /// and still be inside the call. The sink's owner deletes it only
  /// once no other thread can be using the heap (see requestMeshPass).
  void setMeshRequestSink(MeshRequestSink *Sink) {
    RequestSink.store(Sink, std::memory_order_release);
  }

  /// The currently registered sink (nullptr when none). Used by the
  /// atfork child handler to decide whether a deferred mesher restart
  /// must be re-armed.
  MeshRequestSink *meshRequestSink() const {
    return RequestSink.load(std::memory_order_acquire);
  }

  /// Non-blocking compaction request: pokes the registered sink and
  /// returns true, or returns false when no background mesher is
  /// attached (callers may fall back to a synchronous pass). Nothing
  /// pins the sink across the load + virtual call; this relies on the
  /// teardown precondition of its owner's destructor: ~Runtime deletes
  /// the sink only once every other thread is done with the runtime,
  /// and the mesher thread itself never pokes, so no caller can be
  /// between the load and the call when the sink goes away.
  bool requestMeshPass() {
    MeshRequestSink *Sink = RequestSink.load(std::memory_order_acquire);
    if (Sink == nullptr)
      return false;
    Sink->requestMeshPass();
    return true;
  }

  /// The background thread's poke service: the same rate-limited,
  /// hysteresis-gated pass maybeMesh() used to run synchronously, but
  /// attributed to the background origin. \returns true iff a pass ran.
  bool backgroundMaybeMesh() MESH_EXCLUDES(MeshLock);

  /// The background thread's pressure service: bypasses the MeshPeriodMs
  /// gate (the wake interval is the rate limit on this path) but keeps
  /// the effectiveness hysteresis, so an idle heap that stopped
  /// yielding pages stops being compacted until something is freed.
  /// \returns true iff a pass ran.
  bool backgroundPressureMesh() MESH_EXCLUDES(MeshLock);

  /// Samples the heap's physical footprint: one lock-free page-table
  /// walk inside an epoch reader section (which holds off MiniHeap
  /// metadata destruction exactly like the free fast path), cheap
  /// enough for a 100 ms sampling cadence. The pressure monitor turns
  /// this into a fragmentation ratio.
  HeapFootprint sampleFootprint() const;

  /// Fork-child recovery (called from the atfork child handler, single
  /// threaded): clears epoch reader counts orphaned by parent threads
  /// that do not exist in the child.
  void resetEpochAfterFork() { MiniHeapEpoch.resetToQuiescent(); }

  /// Fork quiesce: acquires every heap lock in rank order — MeshLock,
  /// heap shards, arena shards + ArenaLock (via the arena), the leaf
  /// sync lock — so the child inherits them free (no parent thread can
  /// be mid-critical-section at the fork instant). Between the heap
  /// shards and the arena locks it flushes the dirty span bins, so the
  /// child's rebuild has none to skip. Caller must not yet hold the
  /// InternalHeap lock (the flush's bin growth allocates). Paired with
  /// unlockForFork in both parent and child handlers.
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: TSA cannot express a loop over a
  /// lock array, nor a lock()/unlock() pair split across functions (the
  /// atfork prepare/parent/child trio). Runtime coverage:
  /// LockRank death tests + the fork soak (ForkStressTest).
  void lockForFork() MESH_NO_THREAD_SAFETY_ANALYSIS;
  void unlockForFork() MESH_NO_THREAD_SAFETY_ANALYSIS;

  /// Fork-child arena recovery (the copy-to-fresh-memfd protocol):
  /// rebuilds the arena on a private memfd so the child stops sharing
  /// data pages with the parent. Drives
  /// MemfdArena::reinitializeAfterFork() with a page-table walk that
  /// enumerates every MiniHeap once (at its physical span's first
  /// page) and replays its full span list — identity mapping plus
  /// meshed aliases. The dirty bins are guaranteed empty here
  /// (lockForFork flushed them in prepare), so committedPages() already
  /// equals exactly what the copy replays. Must run in the atfork
  /// child handler, before any lock is released and before the
  /// mesher's deferred restart can be consumed; allocation-free and
  /// bounded-syscalls end to end.
  void reinitializeArenaAfterFork();

  /// Flushes dirty spans back to the OS (also happens automatically
  /// past the dirty budget).
  size_t flushDirtyPages();

  size_t committedBytes() const {
    return pagesToBytes(Arena.committedPages());
  }
  size_t dirtyBytes() const { return pagesToBytes(Arena.dirtyPages()); }
  /// Kernel ground truth for the arena file, in pages. Always <=
  /// committedPages (committed counts whole spans; the kernel only
  /// charges materialized pages) — an invariant the fork tests assert
  /// survives the child-side arena rebuild.
  size_t kernelFilePages() const { return Arena.kernelFilePages(); }
  /// Degraded punch/remap operations (faults.punch_fallbacks).
  uint64_t punchFallbackCount() const { return Arena.punchFallbackCount(); }
  /// faults.reset: zeroes the heap-side degradation counters (the
  /// syscall-seam counters reset separately via
  /// sys::resetFaultCounters()).
  void resetFaultCounters() {
    Stats.OomReturns.store(0, std::memory_order_relaxed);
    Stats.MeshRollbacks.store(0, std::memory_order_relaxed);
    Arena.resetPunchFallbacks();
  }

  MeshStats &stats() { return Stats; }
  const MeshStats &stats() const { return Stats; }

  /// Runtime controls (mallctl surface). The meshing switch is its own
  /// atomic — mallctl may flip it while the background mesher (or a
  /// racing mutator) is reading it.
  void setMeshingEnabled(bool Enabled) {
    MeshingEnabledFlag.store(Enabled, std::memory_order_relaxed);
  }
  bool meshingEnabled() const {
    return MeshingEnabledFlag.load(std::memory_order_relaxed);
  }
  /// Like the meshing switch, the period is its own atomic: the
  /// lock-free maybeMesh() precheck reads it on every trigger while
  /// mallctl may retune it.
  void setMeshPeriodMs(uint64_t Ms) {
    MeshPeriodMsAtomic.store(Ms, std::memory_order_relaxed);
  }
  uint64_t meshPeriodMs() const {
    return MeshPeriodMsAtomic.load(std::memory_order_relaxed);
  }
  /// The SplitMesher knobs stay plain Opts fields: performMeshing reads
  /// them under MeshLock, so their mallctl accessors take it too.
  void setMeshProbes(uint32_t T) MESH_EXCLUDES(MeshLock) {
    SpinLockGuard Guard(MeshLock);
    Opts.MeshProbes = T;
  }
  uint32_t meshProbes() const MESH_EXCLUDES(MeshLock) {
    SpinLockGuard Guard(MeshLock);
    return Opts.MeshProbes;
  }
  void setMaxMeshesPerPass(uint32_t Max) MESH_EXCLUDES(MeshLock) {
    SpinLockGuard Guard(MeshLock);
    Opts.MaxMeshesPerPass = Max;
  }
  uint32_t maxMeshesPerPass() const MESH_EXCLUDES(MeshLock) {
    SpinLockGuard Guard(MeshLock);
    return Opts.MaxMeshesPerPass;
  }
  bool randomized() const { return Opts.Randomized; }

  /// Test hook: number of detached, partially-full MiniHeaps currently
  /// binned for \p SizeClass. Non-const on purpose: it drains the
  /// shard's pending stash first (re-binning, possibly destroying empty
  /// spans) so the count reflects every completed remote free.
  size_t binnedCount(int SizeClass);

  static constexpr int kOccupancyBins = 4;

  /// Shard count: one per size class plus the large-object shard. The
  /// heap and arena shard maps are the same map, so a MiniHeap's heap
  /// shard index is also its arena shard index.
  static constexpr int kNumShards = MeshableArena::kNumArenaShards;
  /// Index of the shard serializing large-object (singleton) frees.
  static constexpr int kLargeShard = MeshableArena::kLargeArenaShard;

  /// Test hooks pinning the shard lock-ordering discipline: Debug
  /// builds abort on out-of-order acquisition (death tests only; never
  /// use in production paths).
  /// MESH_NO_THREAD_SAFETY_ANALYSIS: the death tests acquire locks
  /// out of rank and abandon them inside EXPECT_DEATH statements on
  /// purpose — exactly what the static analysis exists to reject.
  /// These hooks are the runtime checker's domain (LockRank).
  void lockShardForTest(int ShardIdx) MESH_NO_THREAD_SAFETY_ANALYSIS {
    lockShard(ShardIdx);
  }
  void unlockShardForTest(int ShardIdx) MESH_NO_THREAD_SAFETY_ANALYSIS {
    unlockShard(ShardIdx);
  }

  /// Test access to the arena (shard-lock counters, accounting
  /// invariants, the arena-rank lock-order hooks).
  MeshableArena &arenaForTest() { return Arena; }

  /// Maps an occupancy fraction to its bin. Quartiles are left-closed:
  /// bin 0 holds (0%, 25%), bin 1 [25%, 50%), bin 2 [50%, 75%), bin 3
  /// [75%, 100%] (the clamp folds 100% in, though full and empty spans
  /// are never binned). Public so tests can pin the boundary math.
  static int occupancyBin(uint32_t InUse, uint32_t Count) {
    const int Bin = static_cast<int>(
        (static_cast<uint64_t>(InUse) * kOccupancyBins) / Count);
    return Bin >= kOccupancyBins ? kOccupancyBins - 1 : Bin;
  }

private:
  /// One size class's slice of the global heap's structural state. All
  /// fields except PendingStash are guarded by this shard's Lock;
  /// PendingStash is a lock-free MPSC stack pushed by remote frees and
  /// exchanged out by lock-held drains. Cache-line aligned so two
  /// shards' locks never false-share.
  struct alignas(64) Shard {
    mutable SpinLock Lock;
    /// Detached, partially-full MiniHeaps keyed by occupancy quartile
    /// (empty and unused for the large-object shard).
    InternalVector<MiniHeap *> Bins[kOccupancyBins] MESH_GUARDED_BY(Lock);
    /// Intrusive MPSC stack of MiniHeaps with un-drained remote frees.
    /// Deliberately NOT guarded: pushes are lock-free atomic CAS from
    /// remote frees; only the exchange-out in drainStashLocked needs
    /// the lock (for what it does with the popped list, not the pop).
    std::atomic<MiniHeap *> PendingStash{nullptr};
    /// Destroyed MiniHeaps whose metadata awaits the batched epoch
    /// advance before deletion.
    InternalVector<MiniHeap *> RetiredList MESH_GUARDED_BY(Lock);
    /// Bin selection randomness (Section 3.1).
    Rng Random MESH_GUARDED_BY(Lock){0};
  };

  /// Shard owning \p MH's structural state.
  int shardIndexFor(const MiniHeap *MH) const {
    return MH->isLargeAlloc() ? kLargeShard : MH->sizeClass();
  }

  void lockShard(int ShardIdx) MESH_ACQUIRE(Shards[ShardIdx].Lock);
  void unlockShard(int ShardIdx) MESH_RELEASE(Shards[ShardIdx].Lock);

  void insertIntoBinLocked(Shard &S, MiniHeap *MH, uint32_t InUse)
      MESH_REQUIRES(S.Lock);
  void removeFromBinLocked(Shard &S, MiniHeap *MH) MESH_REQUIRES(S.Lock);
  void rebinOrDestroyLocked(Shard &S, MiniHeap *MH) MESH_REQUIRES(S.Lock);
  void destroyMiniHeapLocked(Shard &S, MiniHeap *MH) MESH_REQUIRES(S.Lock);
  void freeLocked(Shard &S, MiniHeap *MH, void *Ptr) MESH_REQUIRES(S.Lock);
  /// The lock-free small-object free. Returns true when \p Ptr was
  /// fully handled (freed, or diagnosed and discarded); false when the
  /// caller must retry under the owning shard's lock (large object, or
  /// a mesh pass is running). \p BecameEmpty reports that this free
  /// cleared the span's last live bit — the one case where maintenance
  /// (span destruction) should not wait for the next refill — and
  /// \p ShardIdx receives the owning shard for that drain.
  bool tryFreeUnlocked(void *Ptr, bool *BecameEmpty, int *ShardIdx);
  /// The shard-locked free fallback. Returns false when the owner
  /// changed shards between the epoch peek and the lock (page recycled
  /// to another class); the caller restarts dispatch.
  bool freeDiverted(void *Ptr);
  /// Pushes \p MH onto its shard's pending stash (MPSC; lock-free
  /// callers inside an epoch section).
  void pushPending(Shard &S, MiniHeap *MH);
  /// drainPendingLocked on every shard in turn (ascending, one lock at
  /// a time): the full-reclamation sweep used by teardown and
  /// dirty-page flushes.
  void drainAllShards();
  /// Pops the shard's whole pending stash and re-bins / destroys /
  /// deletes each entry according to its current state. Leaves the
  /// retired list alone — every caller must follow up with a reap
  /// (drainPendingLocked bundles the two; the mesh pass batches the
  /// reap across shards instead).
  void drainStashLocked(Shard &S) MESH_REQUIRES(S.Lock);
  /// drainStashLocked plus the retired-metadata reap: the maintenance
  /// unit every non-pass lock holder runs.
  void drainPendingLocked(Shard &S) MESH_REQUIRES(S.Lock);
  /// Deletes (or, for entries a stale stash push still references,
  /// marks dead) every MiniHeap in \p Retired and clears the list.
  /// Callers must have run epochSynchronize() after the last entry was
  /// retired — that makes each pending-free count final — and must
  /// prevent concurrent stash drains of the affected shards until the
  /// markDead hand-off lands (hold the shard lock, or quiesce pushes
  /// like the mesh pass does).
  void deleteRetired(InternalVector<MiniHeap *> &Retired);
  /// Deletes the shard's retired MiniHeap metadata after one batched
  /// epoch advance (see destroyMiniHeapLocked).
  void reapRetiredLocked(Shard &S) MESH_REQUIRES(S.Lock);
  /// Epoch::synchronize with its callers serialized (EpochSyncLock).
  /// A caller inside a MiniHeapEpoch reader section would deadlock
  /// waiting for itself — hence the epoch exclusion.
  void epochSynchronize() MESH_EXCLUDES(EpochSyncLock, MiniHeapEpoch);
  /// MESH_NO_THREAD_SAFETY_ANALYSIS (in addition to the REQUIRES): the
  /// pass visits shard locks through a variable loop index, which TSA
  /// cannot model. MeshLock itself is checked; the in-pass shard-lock
  /// order is LockRank's job.
  size_t performMeshing(MeshPassOrigin Origin)
      MESH_REQUIRES(MeshLock) MESH_NO_THREAD_SAFETY_ANALYSIS;
  size_t meshPairLocked(Shard &S, MiniHeap *Dst, MiniHeap *Src)
      MESH_REQUIRES(S.Lock) MESH_REQUIRES(MeshLock);
  /// The write-barrier-serialized object copy of a mesh, isolated so
  /// the TSan suppression covers it and nothing else (see tsan.supp).
  static size_t meshCopyBarrierProtected(MiniHeap *Dst, MiniHeap *Src,
                                         char *Base);

  MeshOptions Opts;
  MeshableArena Arena;
  MeshStats Stats;
  mutable Epoch MiniHeapEpoch;

  Shard Shards[kNumShards];

  /// Serializes mesh passes; also guards the rate-limiter state below.
  /// Acquired before any shard lock.
  mutable SpinLock MeshLock;
  /// Serializes Epoch::synchronize callers (leaf lock).
  mutable SpinLock EpochSyncLock;

  /// SplitMesher randomness.
  Rng MeshRandom MESH_GUARDED_BY(MeshLock);

  /// True while a mesh pass is consolidating spans; lock-free frees
  /// divert to the shard-locked path so bitmap merges see a quiesced
  /// heap.
  std::atomic<bool> MeshInProgress{false};

  /// Background mesher, when one is attached (see setMeshRequestSink).
  std::atomic<MeshRequestSink *> RequestSink{nullptr};

  /// Live value of Opts.MeshingEnabled (see setMeshingEnabled).
  std::atomic<bool> MeshingEnabledFlag{true};
  /// Live value of Opts.MeshPeriodMs (see setMeshPeriodMs).
  std::atomic<uint64_t> MeshPeriodMsAtomic{kDefaultMeshPeriodMs};

  /// Rate-limiter state. LastMeshMs is written under MeshLock but read
  /// by maybeMesh()'s lock-free precheck (the poke gate), so it is an
  /// atomic rather than a guarded field; the rest is guarded by
  /// MeshLock.
  std::atomic<uint64_t> LastMeshMs{0};
  size_t LastMeshReleased MESH_GUARDED_BY(MeshLock) = 0;
  std::atomic<bool> FreedSinceLastMesh{false};
};

} // namespace mesh

#endif // MESH_CORE_GLOBALHEAP_H
