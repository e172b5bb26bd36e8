//===- InternalHeap.h - mmap-backed metadata allocator ----------*- C++ -*-===//
///
/// \file
/// The allocator Mesh uses for its *own* needs (paper Section 4.4.2):
/// MiniHeap objects, bin arrays, internal vectors. It draws storage
/// directly from mmap so the interposition shim can bootstrap without
/// recursing into malloc.
///
/// Design: chunked bump allocation with per-size-class free lists.
/// Sizes are rounded to powers of two between 16 bytes and 4 KiB;
/// larger requests get dedicated mappings. Thread safety via SpinLock.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_INTERNALHEAP_H
#define MESH_SUPPORT_INTERNALHEAP_H

#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace mesh {

/// mmap-backed allocator for Mesh metadata. Never touches malloc.
class InternalHeap {
public:
  InternalHeap() = default;
  ~InternalHeap();

  InternalHeap(const InternalHeap &) = delete;
  InternalHeap &operator=(const InternalHeap &) = delete;

  /// Allocates \p Size bytes, 16-byte aligned. Aborts on OOM (metadata
  /// allocation failure is not recoverable inside an allocator).
  void *alloc(size_t Size);

  /// Returns memory obtained from alloc(). \p Size must match the
  /// original request.
  void free(void *Ptr, size_t Size);

  /// Constructs a \p T from this heap.
  template <typename T, typename... Args> T *makeNew(Args &&...As) {
    void *Mem = alloc(sizeof(T));
    return new (Mem) T(std::forward<Args>(As)...);
  }

  /// Destroys and frees an object created by makeNew().
  template <typename T> void deleteObj(T *Obj) {
    if (Obj == nullptr)
      return;
    Obj->~T();
    free(Obj, sizeof(T));
  }

  /// Bytes currently handed out to live metadata objects. Takes the
  /// heap lock: the counter is a plain size_t field updated under it,
  /// and an unlocked read would be a data race (a gap the thread-safety
  /// annotations surfaced — the pre-annotation accessors read the
  /// guarded fields lockless).
  size_t liveBytes() const {
    SpinLockGuard Guard(Lock);
    return LiveBytes;
  }

  /// The process-wide metadata heap used by default runtimes and the
  /// interposition shim.
  static InternalHeap &global();

  /// Fork quiesce (see Runtime's pthread_atfork handlers): holds the
  /// heap lock across fork() so the child never inherits it mid-
  /// critical-section from a parent thread that no longer exists.
  void lockForFork() MESH_ACQUIRE(Lock) { Lock.lock(); }
  void unlockForFork() MESH_RELEASE(Lock) { Lock.unlock(); }

private:
  struct FreeNode {
    FreeNode *Next;
  };

  static constexpr size_t kChunkBytes = 256 * 1024;
  static constexpr size_t kMinBlock = 16;
  static constexpr size_t kMaxBlock = 4096;
  static constexpr unsigned kNumClasses = 9; // 16,32,...,4096

  static unsigned classForSize(size_t Size);
  void refill(unsigned Class) MESH_REQUIRES(Lock);

  /// mutable so the const byte-count accessor can lock.
  mutable SpinLock Lock;
  FreeNode *FreeLists[kNumClasses] MESH_GUARDED_BY(Lock) = {};
  char *ChunkCursor MESH_GUARDED_BY(Lock) = nullptr;
  size_t ChunkRemaining MESH_GUARDED_BY(Lock) = 0;
  size_t LiveBytes MESH_GUARDED_BY(Lock) = 0;
};

} // namespace mesh

#endif // MESH_SUPPORT_INTERNALHEAP_H
