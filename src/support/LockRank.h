//===- LockRank.h - Debug lock-rank enforcement -----------------*- C++ -*-===//
///
/// \file
/// Per-thread held-lock bookkeeping for the heap's ranked locks,
/// shared by GlobalHeap (heap shards) and MeshableArena (arena shards,
/// ArenaLock). The rank order is
///
///   MeshLock -> heap shards ascending -> arena shards ascending
///            -> ArenaLock
///
/// with EpochSyncLock as a leaf. Debug builds abort on any out-of-rank
/// acquisition (pinned by ShardLockOrderTest's death tests); release
/// builds compile every call here to nothing.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_LOCKRANK_H
#define MESH_SUPPORT_LOCKRANK_H

#include <cstdint>

namespace mesh {
namespace lockrank {

#ifndef NDEBUG

void acquireHeapShard(int Idx);
void releaseHeapShard(int Idx);
void acquireArenaShard(int Idx);
void releaseArenaShard(int Idx);
void acquireArenaLock();
void releaseArenaLock();

/// The bits of every arena shard this thread currently holds (test
/// probe for the held-lock-mask assertions in ArenaShardTest).
uint32_t heldArenaShards();
/// The bits of every heap shard this thread currently holds.
uint32_t heldHeapShards();

#else

inline void acquireHeapShard(int) {}
inline void releaseHeapShard(int) {}
inline void acquireArenaShard(int) {}
inline void releaseArenaShard(int) {}
inline void acquireArenaLock() {}
inline void releaseArenaLock() {}
inline uint32_t heldArenaShards() { return 0; }
inline uint32_t heldHeapShards() { return 0; }

#endif // NDEBUG

} // namespace lockrank
} // namespace mesh

#endif // MESH_SUPPORT_LOCKRANK_H
