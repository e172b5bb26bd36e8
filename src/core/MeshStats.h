//===- MeshStats.h - Allocator statistics -----------------------*- C++ -*-===//
///
/// \file
/// Counters backing the paper's evaluation: meshes performed, physical
/// pages released by meshing, time spent meshing and the longest single
/// pause (Section 6.2.2 reports 0.23 s total / 22 ms max for Redis).
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_MESHSTATS_H
#define MESH_CORE_MESHSTATS_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mesh {

/// Where a mesh pass executed. Foreground passes run on an application
/// thread (synchronous maybeMesh, explicit meshNow) and their duration
/// is a mutator pause; background passes run on the dedicated mesher
/// thread and cost mutators nothing beyond shard-lock blips. The
/// ablation bench attributes pauses with exactly this split.
enum class MeshPassOrigin { Foreground, Background };

struct MeshStats {
  std::atomic<uint64_t> MeshCount{0};     ///< Pairs meshed.
  std::atomic<uint64_t> PagesMeshed{0};   ///< Physical pages released.
  std::atomic<uint64_t> BytesCopied{0};   ///< Object bytes relocated.
  std::atomic<uint64_t> MeshProbeCount{0};///< Meshability tests run.
  std::atomic<uint64_t> TotalMeshNs{0};   ///< Wall time inside passes.
  std::atomic<uint64_t> PeakCommittedPages{0};

  /// Per-origin pass counts and worst-case durations (see
  /// MeshPassOrigin). Foreground max is the mutator-visible pause; the
  /// background max only measures how long the mesher thread was busy.
  std::atomic<uint64_t> MeshPassesForeground{0};
  std::atomic<uint64_t> MeshPassesBackground{0};
  std::atomic<uint64_t> MaxForegroundPassNs{0};
  std::atomic<uint64_t> MaxBackgroundPassNs{0};

  /// Degradation counters (faults.* mallctl namespace): malloc paths
  /// that returned nullptr/ENOMEM on span-commit failure or arena
  /// exhaustion, and mesh pairs rolled back to two valid unmeshed
  /// spans after a remap/protect failure.
  std::atomic<uint64_t> OomReturns{0};
  std::atomic<uint64_t> MeshRollbacks{0};

  /// SplitMesher invocations of either origin.
  uint64_t meshPasses() const {
    return MeshPassesForeground.load(std::memory_order_relaxed) +
           MeshPassesBackground.load(std::memory_order_relaxed);
  }
  /// Longest single pass of either origin.
  uint64_t maxPassNs() const {
    return std::max(MaxForegroundPassNs.load(std::memory_order_relaxed),
                    MaxBackgroundPassNs.load(std::memory_order_relaxed));
  }

  void recordPass(uint64_t Ns, MeshPassOrigin Origin) {
    TotalMeshNs.fetch_add(Ns, std::memory_order_relaxed);
    if (Origin == MeshPassOrigin::Background) {
      MeshPassesBackground.fetch_add(1, std::memory_order_relaxed);
      maxInPlace(MaxBackgroundPassNs, Ns);
    } else {
      MeshPassesForeground.fetch_add(1, std::memory_order_relaxed);
      maxInPlace(MaxForegroundPassNs, Ns);
    }
  }

  void updatePeak(uint64_t CommittedPages) {
    maxInPlace(PeakCommittedPages, CommittedPages);
  }

private:
  static void maxInPlace(std::atomic<uint64_t> &Slot, uint64_t Value) {
    uint64_t Prev = Slot.load(std::memory_order_relaxed);
    while (Value > Prev &&
           !Slot.compare_exchange_weak(Prev, Value,
                                       std::memory_order_relaxed))
      ;
  }
};

/// One sample of the heap's physical footprint, the input to the
/// pressure monitor (runtime/PressureMonitor.h). Produced by
/// GlobalHeap::sampleFootprint(); lives here so the monitor can be
/// unit-tested against fake sources without pulling in the heap.
struct HeapFootprint {
  /// Arena pages currently backed by physical memory.
  size_t CommittedBytes = 0;
  /// Object bytes live by the allocation bitmaps. Attached spans count
  /// their shuffle-vector-claimed slots as live, so this is an upper
  /// bound on application-live bytes — i.e. the fragmentation ratio
  /// derived from it is conservative.
  size_t InUseBytes = 0;
  /// Bytes spanned by live MiniHeaps (each physical span counted once).
  size_t SpanBytes = 0;
  /// Bytes of freed-but-not-yet-returned dirty pages.
  size_t DirtyBytes = 0;
};

} // namespace mesh

#endif // MESH_CORE_MESHSTATS_H
