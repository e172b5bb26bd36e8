//===- BackgroundMesher.cpp - Dedicated meshing thread ----------------------===//

#include "runtime/BackgroundMesher.h"

#include "runtime/PressureMonitor.h"
#include "support/Log.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <ctime>

namespace mesh {

namespace {

timespec deadlineIn(uint64_t Ms) {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  Ts.tv_sec += static_cast<time_t>(Ms / 1000);
  Ts.tv_nsec += static_cast<long>((Ms % 1000) * 1000000ULL);
  if (Ts.tv_nsec >= 1000000000L) {
    Ts.tv_nsec -= 1000000000L;
    ++Ts.tv_sec;
  }
  return Ts;
}

} // namespace

BackgroundMesher::BackgroundMesher(GlobalHeap &Heap, SpinLock &LifecycleLock)
    : Heap(Heap), LifecycleLock(LifecycleLock) {
  initMonotonicCondVar();
}

void BackgroundMesher::initMonotonicCondVar() {
  // The waits must track CLOCK_MONOTONIC: a wall-clock jump (ntp step,
  // suspend) must not stall or storm the mesher.
  pthread_condattr_t Attr;
  pthread_condattr_init(&Attr);
  pthread_condattr_setclock(&Attr, CLOCK_MONOTONIC);
  pthread_cond_init(&CV, &Attr);
  pthread_condattr_destroy(&Attr);
}

BackgroundMesher::~BackgroundMesher() {
  stop();
  pthread_cond_destroy(&CV);
}

void *BackgroundMesher::threadEntry(void *Arg) {
#ifdef __linux__
  pthread_setname_np(pthread_self(), "mesh-bg");
#endif
  static_cast<BackgroundMesher *>(Arg)->run();
  return nullptr;
}

void BackgroundMesher::start() {
  if (Running.load(std::memory_order_acquire))
    return;
  {
    M.lock();
    StopFlag = false;
    M.unlock();
  }
  const int Rc = pthread_create(&Thread, nullptr, threadEntry, this);
  if (Rc != 0) {
    // Out of threads (or a locked-down sandbox): stay synchronous. An
    // unregistered sink makes maybeMesh() fall back to inline passes
    // by itself — degraded, never broken. The explicit clear matters
    // on the deferred fork-restart path, where the sink was inherited
    // registered; on initial start it is a no-op. (pthread_create
    // returns the error; it does not set errno.)
    Heap.setMeshRequestSink(nullptr);
    logWarning("background mesher: pthread_create failed (error %d); "
               "falling back to synchronous meshing",
               Rc);
    return;
  }
  Running.store(true, std::memory_order_release);
  Heap.setMeshRequestSink(this);
}

void BackgroundMesher::stop() {
  // A single clear suffices under the precondition (no other thread
  // uses the heap): no poke is inside requestMeshPass(), so none can
  // be running a deferred restart that would re-register the sink,
  // and the mesher thread never pokes.
  Heap.setMeshRequestSink(nullptr);
  if (!Running.load(std::memory_order_acquire))
    return;
  M.lock();
  StopFlag = true;
  pthread_cond_signal(&CV);
  M.unlock();
  pthread_join(Thread, nullptr);
  Running.store(false, std::memory_order_release);
}

void BackgroundMesher::quiesceForFork() {
  WasRunningBeforeFork = Running.load(std::memory_order_acquire);
  if (!WasRunningBeforeFork)
    return;
  // Join, but keep the sink registered: the fork window is tiny, and a
  // poke that lands in it just leaves the request flag set for the
  // restarted thread to honor. A poker can therefore own M at the fork
  // instant — harmless in the parent (that thread lives on and
  // releases), handled in the child by re-initializing M and CV in
  // resumeAfterForkChild() before anything there can touch them.
  M.lock();
  StopFlag = true;
  pthread_cond_signal(&CV);
  M.unlock();
  pthread_join(Thread, nullptr);
  Running.store(false, std::memory_order_release);
}

void BackgroundMesher::resumeAfterForkParent() {
  if (!WasRunningBeforeFork)
    return;
  WasRunningBeforeFork = false;
  // Our own thread was joined pre-fork; any mutator that held M across
  // the fork window is still alive here and releases it normally, so
  // start() can take M as usual.
  start();
}

void BackgroundMesher::resumeAfterForkChild() {
  // A mutator inside requestMeshPass() may have owned M at the fork
  // instant; that thread does not exist here, so the child would
  // deadlock on its first use of M. Exactly one thread exists in the
  // child, so re-initializing both primitives over the inherited state
  // is safe — the standard atfork recovery for pthread objects.
  M.reinitAfterFork();
  initMonotonicCondVar();
  WasRunningBeforeFork = false;
  // pthread_create is not async-signal-safe, and POSIX guarantees only
  // async-signal-safe functions in the forked child of a multithreaded
  // process. Defer the restart to the first post-fork poke, which runs
  // in ordinary thread context (fork-then-exec children never pay for
  // a thread they would not use). Until then the child's heap is
  // poke-driven only; the inherited RequestFlag is honored by the
  // restarted thread's first loop iteration.
  //
  // Re-arm off "the heap still points at us", not WasRunningBeforeFork:
  // a fork can land between a poke's RestartPending exchange and its
  // start() (the poke blocks on LifecycleLock, held by prepare()), in
  // which case this fork quiesced with Running=false and an unconsumed
  // restart obligation — the registered sink is the durable witness of
  // that obligation in every such interleaving. If no thread was ever
  // started (or start() failed), the sink is not registered and this
  // stays down.
  if (Heap.meshRequestSink() == this)
    RestartPending.store(true, std::memory_order_release);
}

void BackgroundMesher::requestMeshPass() {
  // Deferred fork restart: the child's atfork handler could not spawn
  // a thread (not async-signal-safe there); the first post-fork poke —
  // ordinary context — does it instead. The exchange elects exactly
  // one restarter among racing pokes; LifecycleLock (the fork registry
  // lock) excludes a concurrent fork's quiesce, so a fork either
  // happens before the restart (the child re-arms via the registered
  // sink) or sees a fully started thread it can join.
  if (RestartPending.load(std::memory_order_relaxed) &&
      RestartPending.exchange(false, std::memory_order_acq_rel)) {
    SpinLockGuard Guard(LifecycleLock);
    start();
  }
  // Fast path: a request is already pending; the thread will fold this
  // trigger into the pass it is about to run.
  if (Requested.load(std::memory_order_relaxed))
    return;
  if (Requested.exchange(true, std::memory_order_acq_rel))
    return;
  Requests.fetch_add(1, std::memory_order_relaxed);
  M.lock();
  RequestFlag = true;
  pthread_cond_signal(&CV);
  M.unlock();
}

void BackgroundMesher::run() {
  const uint64_t WakeMs =
      std::max<uint64_t>(Heap.options().BackgroundWakeMs, 1);
  for (;;) {
    bool Poked = false;
    {
      M.lock();
      if (!StopFlag && !RequestFlag) {
        timespec Deadline = deadlineIn(WakeMs);
        // A spurious wake is indistinguishable from (and as harmless
        // as) an early timer wake: the loop body re-derives everything
        // from flags and fresh samples.
        pthread_cond_timedwait(&CV, M.native(), &Deadline);
      }
      if (StopFlag) {
        M.unlock();
        return;
      }
      Poked = RequestFlag;
      RequestFlag = false;
      Requested.store(false, std::memory_order_release);
      M.unlock();
    }
    const uint64_t WakeCount =
        Wakeups.fetch_add(1, std::memory_order_relaxed) + 1;
    telemetry::event(telemetry::EventType::kBgWake, Poked ? 1 : 0,
                     WakeCount);
    if (Poked) {
      if (Heap.backgroundMaybeMesh())
        PokePasses.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Timer wake: sample pressure. This is the only path an idle
      // heap ever takes — nothing allocates, so nothing pokes.
      if (underPressure(Heap.sampleFootprint(), Heap.options()) &&
          Heap.backgroundPressureMesh())
        PressurePasses.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

} // namespace mesh
