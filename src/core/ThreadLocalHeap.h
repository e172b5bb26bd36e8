//===- ThreadLocalHeap.h - Per-thread allocation fast path ------*- C++ -*-===//
///
/// \file
/// Thread-local heaps (paper Section 4.3): one shuffle vector per size
/// class plus a thread-local RNG. malloc and free requests start here
/// and complete without locks in the common case; large allocations and
/// non-local frees forward to the global heap. Shuffle-vector refills
/// take only the owning size class's global-heap shard lock, so
/// refills of different classes (and of the same class on behalf of
/// different threads, when spans are binned) scale independently.
///
/// free() dispatches in O(1): a last-freed-vector cache catches repeat
/// frees with zero atomics, and everything else takes one lock-free
/// page-table read plus an is-it-mine check against the MiniHeap's
/// attachedOwner tag — no scan over the size classes.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_THREADLOCALHEAP_H
#define MESH_CORE_THREADLOCALHEAP_H

#include "core/GlobalHeap.h"
#include "core/ShuffleVector.h"
#include "core/SizeClass.h"
#include "support/Rng.h"

#include <cstddef>

namespace mesh {

class ThreadLocalHeap {
public:
  ThreadLocalHeap(GlobalHeap *Global, uint64_t Seed);
  ~ThreadLocalHeap();

  ThreadLocalHeap(const ThreadLocalHeap &) = delete;
  ThreadLocalHeap &operator=(const ThreadLocalHeap &) = delete;

  /// Allocates \p Bytes: pops from the size class's shuffle vector,
  /// refilling it from the global heap when exhausted; requests larger
  /// than 16 KiB forward to the global heap (Figure 4 pseudocode).
  void *malloc(size_t Bytes);

  /// Frees \p Ptr: the owning MiniHeap is found through the page table
  /// (epoch-protected, one read); if it is attached to this thread the
  /// free completes in its shuffle vector, otherwise it forwards to the
  /// global heap (Figure 4 pseudocode).
  void free(void *Ptr);

  /// Detaches every shuffle vector, returning all attached spans to the
  /// global heap. Called on thread exit and by tests.
  void releaseAll();

private:
  ShuffleVector Vectors[kNumSizeClasses];
  /// Dense mirror of the attached set (kept in lock-step with each
  /// MiniHeap's attachedOwner tag — the tag records ownership on the
  /// MiniHeap itself, this array is its cache-friendly thread-local
  /// image): the is-it-mine check after the page-table read is a
  /// pointer-equality scan over these three cache lines — no atomics
  /// and, crucially, no dereference of the (possibly concurrently
  /// retiring) MiniHeap, so the local fast path needs no epoch
  /// section. A stale page-table read that aliases a recycled
  /// MiniHeap address is caught by the vector's span-range check
  /// before anything is freed into it.
  MiniHeap *AttachedMH[kNumSizeClasses] = {};
  /// Number of non-null AttachedMH entries; lets a thread that only
  /// frees (a consumer in a producer/consumer pipeline) skip the
  /// is-it-mine scan entirely.
  int AttachedCount = 0;
  /// The vector that served the most recent local free; repeat frees
  /// into the same span skip even the page-table read.
  ShuffleVector *LastFreed = nullptr;
  GlobalHeap *Global;
  Rng Random;
};

} // namespace mesh

#endif // MESH_CORE_THREADLOCALHEAP_H
