//===- Runtime.h - Per-heap runtime facade ----------------------*- C++ -*-===//
///
/// \file
/// A Runtime ties together one global heap, per-thread local heaps,
/// and the malloc/free/realloc surface. The interposition shim owns a
/// process-wide default Runtime; tests and benchmarks construct
/// independent Runtimes with their own options and arenas.
///
/// The calling thread's heap is cached in a `__thread` pointer, so the
/// malloc/free hot path costs one TLS load and one compare — no
/// pthread_getspecific (paper Section 4.3: allocation is entirely
/// thread-local in the common case). The pthread key survives solely
/// to run the heap destructor at thread exit. Because the cache is
/// keyed by a never-reused runtime id, tests that stack-allocate
/// Runtimes back to back cannot alias a stale cache entry.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_RUNTIME_H
#define MESH_CORE_RUNTIME_H

#include "core/GlobalHeap.h"
#include "core/Options.h"
#include "core/ThreadLocalHeap.h"
#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <cstddef>
#include <pthread.h>

namespace mesh {

class BackgroundMesher;
class RuntimeForkSupport;

namespace detail {
/// The process-wide fork-registry lock (defined in Runtime.cpp; owned
/// by RuntimeForkSupport). Declared at namespace scope — rather than as
/// a private static of RuntimeForkSupport — so the registry-protected
/// fields below can name it in MESH_GUARDED_BY: the thread-safety
/// analysis needs the capability to be spellable at the field's
/// declaration site. It doubles as the background mesher's lifecycle
/// lock (see RuntimeForkSupport::createMesher).
extern SpinLock ForkRegistryLock;
} // namespace detail

class Runtime {
public:
  explicit Runtime(const MeshOptions &Opts = MeshOptions());
  /// Precondition: no other thread is using this runtime. Their thread
  /// heaps must already be reclaimed (their threads exited) and no
  /// call into the runtime may be in flight. The background mesher's
  /// teardown relies on it (BackgroundMesher::stop).
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  void *malloc(size_t Bytes);
  void free(void *Ptr);
  void *calloc(size_t Count, size_t Size);
  void *realloc(void *Ptr, size_t Bytes);

  /// posix_memalign semantics. Alignments up to one page are served
  /// (size-classed slots, or page-aligned large objects); larger
  /// alignments return EINVAL.
  int posixMemalign(void **Out, size_t Alignment, size_t Bytes);

  /// malloc_usable_size semantics (0 for unknown pointers).
  size_t usableSize(const void *Ptr) const;

  GlobalHeap &global() { return Global; }
  const GlobalHeap &global() const { return Global; }

  /// Physical memory footprint of the heap, including Mesh's own
  /// metadata share (the RSS analogue used by the benchmarks).
  size_t committedBytes() const { return Global.committedBytes(); }

  /// Forces a meshing pass; returns bytes released.
  size_t meshNow() { return Global.meshNow(); }

  /// The calling thread's local heap, created on first use. The fast
  /// path is a `__thread` cache hit; the slow path falls back to the
  /// pthread key and refreshes the cache.
  ThreadLocalHeap &localHeap();

  /// jemalloc-flavoured control interface (paper Section 4.5 mentions
  /// the "semi-standard mallctl API"). Supported names are documented
  /// in api/mesh/mesh.h. Returns 0, or ENOENT/EINVAL on error.
  int mallctl(const char *Name, void *OldP, size_t *OldLenP, void *NewP,
              size_t NewLen);

  /// The background mesher owned by this runtime, or nullptr when
  /// meshing runs synchronously (Options::BackgroundMeshing off, or
  /// thread creation failed and the runtime degraded to inline passes).
  BackgroundMesher *backgroundMesher() { return BgMesher; }
  const BackgroundMesher *backgroundMesher() const { return BgMesher; }

private:
  friend class RuntimeForkSupport;

  static void destroyThreadHeap(void *Arg);
  ThreadLocalHeap &localHeapSlow();

  GlobalHeap Global;
  pthread_key_t HeapKey;
  /// Process-unique, never reused; the TLS heap cache is valid only
  /// while its recorded id matches this runtime's.
  uint64_t Id;
  /// Owned (InternalHeap-allocated); created in the ctor when
  /// BackgroundMeshing is on, destroyed first in the dtor so the thread
  /// is joined before any heap state dies.
  BackgroundMesher *BgMesher = nullptr;
  /// Intrusive linkage for the process-wide fork registry (see
  /// RuntimeForkSupport in Runtime.cpp).
  Runtime *PrevRuntime MESH_GUARDED_BY(detail::ForkRegistryLock) = nullptr;
  Runtime *NextRuntime MESH_GUARDED_BY(detail::ForkRegistryLock) = nullptr;
};

} // namespace mesh

#endif // MESH_CORE_RUNTIME_H
