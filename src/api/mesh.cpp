//===- mesh.cpp - Public Mesh API -------------------------------------------===//

#include "mesh/mesh.h"

#include "core/Runtime.h"
#include "support/Env.h"

#include <atomic>
#include <new>
#include <sched.h>

namespace mesh {

namespace {

MeshOptions optionsFromEnvironment() {
  MeshOptions Opts;
  if (envBool("MESH_NO_MESH", false))
    Opts.MeshingEnabled = false;
  if (envBool("MESH_NO_RAND", false))
    Opts.Randomized = false;
  if (envBool("MESH_NO_BARRIER", false))
    Opts.BarrierEnabled = false;
  uint64_t U = 0;
  if (envU64("MESH_PERIOD_MS", 0, ~uint64_t{0}, &U))
    Opts.MeshPeriodMs = U;
  if (envU64("MESH_PROBES", 1, 1u << 20, &U))
    Opts.MeshProbes = static_cast<uint32_t>(U);
  if (envU64("MESH_SEED", 0, ~uint64_t{0}, &U))
    Opts.Seed = U;
  // The background meshing runtime defaults ON for the process-default
  // heap (the paper's concurrent-meshing behavior); MESH_BACKGROUND=0
  // restores fully synchronous passes. Instance heaps (tests, benches)
  // default off and opt in through MeshOptions.
  Opts.BackgroundMeshing = envBool("MESH_BACKGROUND", true);
  if (envU64("MESH_BG_WAKE_MS", 1, 60 * 60 * 1000, &U))
    Opts.BackgroundWakeMs = U;
  if (envU64("MESH_PRESSURE_PCT", 0, 100, &U))
    Opts.PressureFragThresholdPct = static_cast<uint32_t>(U);
  if (envU64("MESH_PRESSURE_MIN_BYTES", 0, ~uint64_t{0}, &U))
    Opts.PressureMinCommittedBytes = U;
  return Opts;
}

} // namespace

Runtime &defaultRuntime() {
  // Built in static storage and intentionally never destroyed: frees
  // may arrive from atexit handlers after static destructors run.
  //
  // Hand-rolled once instead of a function-local static: constructing
  // the Runtime can itself re-enter malloc on this very thread
  // (pthread_create for the background mesher allocates internally),
  // and a __cxa_guard would deadlock on that recursion. The reentrant
  // call gets the partially-constructed instance, which is safe by
  // construction order: GlobalHeap and the TLS heap key are fully built
  // before anything in the ctor body can allocate, and a bootstrap
  // request touches nothing else.
  alignas(Runtime) static char Storage[sizeof(Runtime)];
  static std::atomic<int> State{0}; // 0 uninit, 1 constructing, 2 ready
  // initial-exec TLS like Shim.cpp's Busy guard: a global-dynamic TLS
  // access can itself allocate (DTV slow path) and re-enter this very
  // function before the runtime exists.
  static __thread bool ConstructingOnThisThread
      __attribute__((tls_model("initial-exec"))) = false;
  auto *Instance = reinterpret_cast<Runtime *>(Storage);
  if (State.load(std::memory_order_acquire) == 2)
    return *Instance;
  int Expected = 0;
  if (State.compare_exchange_strong(Expected, 1,
                                    std::memory_order_acq_rel)) {
    ConstructingOnThisThread = true;
    new (Storage) Runtime(optionsFromEnvironment());
    ConstructingOnThisThread = false;
    State.store(2, std::memory_order_release);
    return *Instance;
  }
  if (ConstructingOnThisThread)
    return *Instance; // Reentrant bootstrap call from our own ctor.
  while (State.load(std::memory_order_acquire) != 2)
    sched_yield();
  return *Instance;
}

} // namespace mesh

using mesh::defaultRuntime;

extern "C" {

void *mesh_malloc(size_t Bytes) { return defaultRuntime().malloc(Bytes); }

void mesh_free(void *Ptr) { defaultRuntime().free(Ptr); }

void *mesh_calloc(size_t Count, size_t Size) {
  return defaultRuntime().calloc(Count, Size);
}

void *mesh_realloc(void *Ptr, size_t Bytes) {
  return defaultRuntime().realloc(Ptr, Bytes);
}

int mesh_posix_memalign(void **Out, size_t Alignment, size_t Bytes) {
  return defaultRuntime().posixMemalign(Out, Alignment, Bytes);
}

size_t mesh_malloc_usable_size(const void *Ptr) {
  return defaultRuntime().usableSize(Ptr);
}

int mesh_mallctl(const char *Name, void *OldP, size_t *OldLenP, void *NewP,
                 size_t NewLen) {
  return defaultRuntime().mallctl(Name, OldP, OldLenP, NewP, NewLen);
}

size_t mesh_committed_bytes(void) {
  return defaultRuntime().committedBytes();
}

size_t mesh_mesh_now(void) { return defaultRuntime().meshNow(); }

} // extern "C"
