//===- InternalHeap.cpp - mmap-backed metadata allocator -----------------===//

#include "support/InternalHeap.h"

#include "support/Common.h"
#include "support/Log.h"
#include "support/MathUtils.h"

#include <cassert>
#include <cstring>
#include <sys/mman.h>

namespace mesh {

static void *mapAnonymous(size_t Bytes) {
  void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    fatalError("internal heap mmap of %zu bytes failed", Bytes);
  return Mem;
}

InternalHeap::~InternalHeap() {
  // Chunks are intentionally leaked: the internal heap lives for the
  // process (or test) lifetime and unmapping on destruction would
  // require tracking every chunk for marginal benefit. Dedicated large
  // mappings are unmapped in free().
}

unsigned InternalHeap::classForSize(size_t Size) {
  size_t Rounded = roundUpToPowerOfTwo(Size < kMinBlock ? kMinBlock : Size);
  assert(Rounded <= kMaxBlock && "class lookup on large size");
  return log2Floor(Rounded) - log2Floor(kMinBlock);
}

void InternalHeap::refill(unsigned Class) {
  const size_t Block = kMinBlock << Class;
  if (ChunkRemaining < Block) {
    ChunkCursor = static_cast<char *>(mapAnonymous(kChunkBytes));
    ChunkRemaining = kChunkBytes;
  }
  // Carve the remainder of the chunk into blocks of this class.
  while (ChunkRemaining >= Block) {
    auto *Node = reinterpret_cast<FreeNode *>(ChunkCursor);
    Node->Next = FreeLists[Class];
    FreeLists[Class] = Node;
    ChunkCursor += Block;
    ChunkRemaining -= Block;
  }
}

void *InternalHeap::alloc(size_t Size) {
  if (Size > kMaxBlock) {
    const size_t Bytes = roundUpPow2Multiple(Size, kPageSize);
    SpinLockGuard Guard(Lock);
    LiveBytes += Bytes;
    return mapAnonymous(Bytes);
  }
  const unsigned Class = classForSize(Size);
  SpinLockGuard Guard(Lock);
  if (FreeLists[Class] == nullptr)
    refill(Class);
  FreeNode *Node = FreeLists[Class];
  assert(Node && "refill must populate the free list");
  FreeLists[Class] = Node->Next;
  LiveBytes += kMinBlock << Class;
  return Node;
}

void InternalHeap::free(void *Ptr, size_t Size) {
  if (Ptr == nullptr)
    return;
  if (Size > kMaxBlock) {
    const size_t Bytes = roundUpPow2Multiple(Size, kPageSize);
    munmap(Ptr, Bytes);
    SpinLockGuard Guard(Lock);
    LiveBytes -= Bytes;
    return;
  }
  const unsigned Class = classForSize(Size);
  SpinLockGuard Guard(Lock);
  auto *Node = static_cast<FreeNode *>(Ptr);
  Node->Next = FreeLists[Class];
  FreeLists[Class] = Node;
  LiveBytes -= kMinBlock << Class;
}

InternalHeap &InternalHeap::global() {
  // Constructed on first use from static storage; never destroyed, so
  // the interposition shim can serve frees during process teardown.
  alignas(InternalHeap) static char Storage[sizeof(InternalHeap)];
  static InternalHeap *Instance = new (Storage) InternalHeap();
  return *Instance;
}

} // namespace mesh
