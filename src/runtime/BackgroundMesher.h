//===- BackgroundMesher.h - Dedicated meshing thread ------------*- C++ -*-===//
///
/// \file
/// Moves compaction off the application's threads (paper Section 4.5:
/// meshing runs concurrently with the application; our synchronous
/// reproduction instead charged the full pass — the paper's 22 ms-class
/// pause — to whichever mutator tripped the refill trigger).
///
/// One pthread per Runtime, two wake sources:
///
///   - a *poke* (GlobalHeap::maybeMesh via the MeshRequestSink
///     interface): the allocation path's rate-limited trigger, now one
///     atomic flag write + condvar signal instead of a full pass;
///   - the *timer*: every BackgroundWakeMs the pressure monitor samples
///     the heap, and an idle-but-fragmented heap (nothing allocating,
///     so no pokes ever arrive) gets compacted on pressure alone.
///
/// Lifecycle: start() spawns the thread and registers the sink with the
/// heap; stop() unregisters, raises the stop flag and joins. Runtime
/// creates the mesher after its heap and deletes it first in ~Runtime,
/// once no other thread uses the runtime, so no poke can be in flight
/// when it goes away. The fork protocol
/// (quiesceForFork/resumeAfterFork{Parent,Child}, driven by Runtime's
/// pthread_atfork handlers) stops the thread *before* fork — so the
/// fork happens with no mesher thread at all and no heap lock held by
/// it. The parent restarts a fresh thread right after fork; the child
/// cannot (pthread_create is not async-signal-safe in the child of a
/// multithreaded process), so it re-initializes the wake mutex and
/// condvar — a mutator inside requestMeshPass() may own the mutex at
/// the fork instant, and that thread does not exist in the child — and
/// defers the restart to its first post-fork poke. All state is inline
/// (pthread primitives, no std::thread) so the lifecycle paths never
/// allocate: they run inside malloc during LD_PRELOAD bring-up and
/// inside atfork handlers.
///
/// Lock ranks: the wake mutex M is leaf-like and disjoint from every
/// heap lock — requestMeshPass() (callers hold no shard locks, per
/// maybeMesh's contract) takes only M; the thread releases M before
/// entering any heap pass, so M never nests with MeshLock/shards/Arena.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_RUNTIME_BACKGROUNDMESHER_H
#define MESH_RUNTIME_BACKGROUNDMESHER_H

#include "core/GlobalHeap.h"
#include "runtime/PressureMonitor.h"
#include "support/Annotations.h"
#include "support/PthreadMutex.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <pthread.h>

namespace mesh {

class BackgroundMesher final : public MeshRequestSink {
public:
  /// \p WakeMs is the timer interval; \p Cfg the pressure policy.
  /// \p LifecycleLock is held around the deferred post-fork restart's
  /// start() so mesher bring-up cannot interleave with a concurrent
  /// fork's quiesce — Runtime passes its fork registry lock (the lock
  /// prepare() holds for the whole fork window).
  BackgroundMesher(GlobalHeap &Heap, uint64_t WakeMs,
                   const PressureConfig &Cfg, SpinLock &LifecycleLock);
  ~BackgroundMesher() override;

  BackgroundMesher(const BackgroundMesher &) = delete;
  BackgroundMesher &operator=(const BackgroundMesher &) = delete;

  /// Spawns the thread and registers this mesher as the heap's request
  /// sink. Idempotent.
  void start();

  /// Unregisters the sink, then stops and joins the thread.
  /// Idempotent; safe to call with the thread already stopped.
  /// Precondition: no other thread is using the heap, so none can be
  /// inside requestMeshPass() on this object (~Runtime, the only
  /// caller, requires every other thread to be done with the runtime).
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// MeshRequestSink: called from the allocation path. Sets the request
  /// flag and wakes the thread; returns immediately. The fast path (a
  /// request already pending) is two relaxed loads. Also the home of
  /// the deferred fork restart: the first poke after a fork re-spawns
  /// the thread the child's atfork handler could not.
  void requestMeshPass() override;

  /// Fork protocol. quiesceForFork() joins the thread (remembering
  /// whether it was running) so fork() happens single-threaded with no
  /// mesher state in flight. resumeAfterForkParent() restarts it
  /// directly; resumeAfterForkChild() re-initializes the wake mutex and
  /// condvar (a poking mutator may have owned the mutex at the fork
  /// instant — that thread does not exist in the child) and arranges a
  /// lazy restart on the first post-fork poke, because pthread_create
  /// is not async-signal-safe in the forked child of a multithreaded
  /// process. The sink stays registered across the window — pokes
  /// landing in between just set the flag for the restarted thread.
  void quiesceForFork();
  void resumeAfterForkParent();
  void resumeAfterForkChild();

  /// Observability (mallctl background.*).
  uint64_t wakeups() const { return Wakeups.load(std::memory_order_relaxed); }
  uint64_t requests() const {
    return Requests.load(std::memory_order_relaxed);
  }
  uint64_t pokePasses() const {
    return PokePasses.load(std::memory_order_relaxed);
  }
  uint64_t pressurePasses() const {
    return PressurePasses.load(std::memory_order_relaxed);
  }
  /// Passes run on the background origin (the heap keeps the count).
  uint64_t passes() const {
    return Heap.stats().MeshPassesBackground.load(std::memory_order_relaxed);
  }

private:
  static void *threadEntry(void *Arg);
  void run();
  /// (Re-)initializes CV with CLOCK_MONOTONIC waits; shared by the ctor
  /// and the fork-child recovery path.
  void initMonotonicCondVar();

  GlobalHeap &Heap;
  GlobalHeapFootprintSource Source;
  PressureMonitor Monitor;
  const uint64_t WakeMs;
  SpinLock &LifecycleLock; ///< See the ctor.

  pthread_t Thread{};
  PthreadMutex M;
  pthread_cond_t CV; ///< Initialized in the ctor (CLOCK_MONOTONIC waits).
  bool StopFlag MESH_GUARDED_BY(M) = false;
  /// Mirror of Requested, consumed under M by the wake loop.
  bool RequestFlag MESH_GUARDED_BY(M) = false;
  std::atomic<bool> Requested{false}; ///< Lock-free poke fast path.
  std::atomic<bool> Running{false};
  /// Set by the atfork child handler (where spawning a thread is not
  /// async-signal-safe); consumed by the first post-fork poke, which
  /// runs start() from ordinary thread context.
  std::atomic<bool> RestartPending{false};
  bool WasRunningBeforeFork = false;

  std::atomic<uint64_t> Wakeups{0};
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> PokePasses{0};
  std::atomic<uint64_t> PressurePasses{0};
};

} // namespace mesh

#endif // MESH_RUNTIME_BACKGROUNDMESHER_H
