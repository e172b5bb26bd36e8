//===- kv_cache.cpp - Redis-style cache on Mesh ---------------------------===//
///
/// The Section 6.2.2 scenario as an application: an LRU key/value
/// cache whose eviction pattern riddles the heap with holes. With a
/// non-compacting allocator those holes pin physical pages; with Mesh
/// they mesh away — no application-level "defragmentation" required.
///
/// Build and run:  ./examples/kv_cache
///
//===----------------------------------------------------------------------===//

#include "baseline/SizeClassAllocator.h"
#include "workloads/KVStore.h"

#include <cstdio>
#include <string>

using namespace mesh;

namespace {

void runCache(HeapBackend &Heap, const char *Label) {
  // 20 MB budget, 200k inserts of ~300 B entries: heavy LRU churn.
  KVStore Cache(Heap, 20 * 1024 * 1024);
  const std::string Value(280, 'v');
  for (int I = 0; I < 200000; ++I) {
    Cache.set("user:" + std::to_string(I * 2654435761u % 1000000), Value);
    if (I % 50000 == 49999) {
      Heap.flush(); // Mesh: compaction; baseline: no-op
      printf("  [%s] %6d inserts: %5.1f MiB heap for %5.1f MiB payload "
             "(%llu evictions)\n",
             Label, I + 1, Heap.committedBytes() / 1048576.0,
             Cache.payloadBytes() / 1048576.0,
             static_cast<unsigned long long>(Cache.evictionCount()));
    }
  }
  Heap.flush();
  printf("  [%s] final: %.1f MiB heap for %.1f MiB payload\n", Label,
         Heap.committedBytes() / 1048576.0,
         Cache.payloadBytes() / 1048576.0);
}

} // namespace

int main() {
  printf("jemalloc-like baseline:\n");
  SizeClassAllocator Baseline(size_t{2} << 30);
  runCache(Baseline, "baseline");

  printf("\nMesh:\n");
  MeshOptions Options;
  Options.ArenaBytes = size_t{2} << 30;
  Options.MeshPeriodMs = 10;
  MeshBackend Mesh(Options);
  runCache(Mesh, "mesh");

  const auto &Stats = Mesh.runtime().global().stats();
  printf("\nmesh stats: %llu meshes, %llu pages returned to the OS, "
         "longest pause %.2f ms\n",
         static_cast<unsigned long long>(Stats.MeshCount.load()),
         static_cast<unsigned long long>(Stats.PagesMeshed.load()),
         Stats.maxPassNs() * 1e-6);
  return 0;
}
