//===- Shim.cpp - malloc/free interposition ---------------------------------===//
///
/// \file
/// Strong definitions of the libc allocation entry points over the
/// process-default Mesh runtime (paper Section 4: "Mesh interposes on
/// memory management operations"). Built two ways:
///
///  - libmesh_shim_static.a: linked into a binary, the symbols replace
///    libc's at link time (used by the interposition integration test);
///  - libmesh.so: loaded via LD_PRELOAD, the dynamic linker resolves
///    malloc/free here before libc.
///
/// Reentrancy: creating a thread's local heap may itself trigger an
/// allocation inside libc (e.g. pthread_setspecific's second-level
/// table). A thread-local guard detects this and serves such nested
/// requests directly from the global heap, which needs no thread state.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "mesh/mesh.h"
#include "support/MathUtils.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace {

// initial-exec TLS: guaranteed not to allocate on access, which a
// dynamically-allocated TLS block could.
__thread bool Busy __attribute__((tls_model("initial-exec"))) = false;

void *shimMalloc(size_t Bytes) {
  mesh::Runtime &R = mesh::defaultRuntime();
  void *Ptr;
  if (Busy) {
    Ptr = R.global().largeAlloc(Bytes == 0 ? 1 : Bytes);
  } else {
    Busy = true;
    Ptr = R.malloc(Bytes);
    Busy = false;
  }
  // POSIX contract: a failed allocation sets errno (the runtime layers
  // only return nullptr; the libc surface is where errno belongs).
  if (Ptr == nullptr)
    errno = ENOMEM;
  return Ptr;
}

void shimFree(void *Ptr) {
  if (Ptr == nullptr)
    return;
  mesh::Runtime &R = mesh::defaultRuntime();
  if (Busy) {
    R.global().free(Ptr);
    return;
  }
  Busy = true;
  R.free(Ptr);
  Busy = false;
}

} // namespace

extern "C" {

void *malloc(size_t Bytes) { return shimMalloc(Bytes); }

void free(void *Ptr) { shimFree(Ptr); }

void *calloc(size_t Count, size_t Size) {
  if (Count != 0 && Size > SIZE_MAX / Count) {
    errno = ENOMEM;
    return nullptr;
  }
  const size_t Bytes = Count * Size;
  mesh::Runtime &R = mesh::defaultRuntime();
  void *Ptr;
  if (Busy) {
    // Nested request from heap setup: serve it directly and zero it.
    Ptr = R.global().largeAlloc(Bytes == 0 ? 1 : Bytes);
    if (Ptr != nullptr)
      memset(Ptr, 0, Bytes);
  } else {
    Busy = true;
    // Runtime::calloc skips the memset for large allocations on
    // pristine (never-dirtied) spans — those memfd pages are already
    // zero.
    Ptr = R.calloc(Count, Size);
    Busy = false;
  }
  if (Ptr == nullptr)
    errno = ENOMEM;
  return Ptr;
}

void *realloc(void *Ptr, size_t Bytes) {
  if (Ptr == nullptr)
    return shimMalloc(Bytes);
  if (Bytes == 0) {
    shimFree(Ptr);
    return nullptr;
  }
  const size_t Usable = mesh::defaultRuntime().usableSize(Ptr);
  if (Usable >= Bytes && Bytes >= Usable / 2)
    return Ptr;
  void *Fresh = shimMalloc(Bytes);
  if (Fresh == nullptr)
    return nullptr;
  memcpy(Fresh, Ptr, Bytes < Usable ? Bytes : Usable);
  shimFree(Ptr);
  return Fresh;
}

void *reallocarray(void *Ptr, size_t Count, size_t Size) {
  if (Count != 0 && Size > SIZE_MAX / Count) {
    errno = ENOMEM;
    return nullptr;
  }
  return realloc(Ptr, Count * Size);
}

int posix_memalign(void **Out, size_t Alignment, size_t Bytes) {
  if (Busy) {
    // Nested request from heap setup: large allocations are page
    // aligned, which satisfies every supportable alignment. (Out is
    // declared nonnull by glibc; no null check here.)
    if (!mesh::isPowerOfTwo(Alignment) ||
        Alignment % sizeof(void *) != 0 || Alignment > mesh::kPageSize)
      return EINVAL;
    *Out = mesh::defaultRuntime().global().largeAlloc(Bytes == 0 ? 1
                                                                 : Bytes);
    return *Out == nullptr ? ENOMEM : 0;
  }
  Busy = true;
  const int Rc = mesh::defaultRuntime().posixMemalign(Out, Alignment, Bytes);
  Busy = false;
  return Rc;
}

void *aligned_alloc(size_t Alignment, size_t Bytes) {
  // C11/glibc semantics: any power-of-two alignment, including ones
  // below sizeof(void*) that posix_memalign rejects — every Mesh slot
  // is at least 16-byte aligned, so small alignments round up freely.
  if (!mesh::isPowerOfTwo(Alignment)) {
    errno = EINVAL;
    return nullptr;
  }
  if (Alignment < sizeof(void *))
    Alignment = sizeof(void *);
  void *Out = nullptr;
  const int Rc = posix_memalign(&Out, Alignment, Bytes);
  if (Rc != 0) {
    errno = Rc;
    return nullptr;
  }
  return Out;
}

void *memalign(size_t Alignment, size_t Bytes) {
  return aligned_alloc(Alignment, Bytes);
}

void *valloc(size_t Bytes) { return aligned_alloc(mesh::kPageSize, Bytes); }

void *pvalloc(size_t Bytes) {
  return aligned_alloc(mesh::kPageSize,
                       mesh::roundUpPow2Multiple(Bytes, mesh::kPageSize));
}

size_t malloc_usable_size(void *Ptr) {
  return mesh::defaultRuntime().usableSize(Ptr);
}

int malloc_trim(size_t) {
  // glibc contract: nonzero iff memory was actually returned to the
  // system. Dirty-page flushing is exactly Mesh's deferred give-back.
  return mesh::defaultRuntime().global().flushDirtyPages() > 0 ? 1 : 0;
}

} // extern "C"
