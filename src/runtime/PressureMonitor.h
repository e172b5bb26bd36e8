//===- PressureMonitor.h - Memory-pressure policy and sampling --*- C++ -*-===//
///
/// \file
/// Decides *when* an idle heap deserves a compaction pass. The paper's
/// trigger (Section 4.5) is purely allocation-driven: a rate-limited
/// check on the refill path. That leaves a gap the background runtime
/// closes — a heap that fragments and then goes quiet never allocates
/// again, so nothing ever trips the trigger and the committed pages
/// linger forever.
///
/// underPressure() is the policy: a pure function of one HeapFootprint
/// (committed vs bitmap-live bytes) and the heap's options, so tests
/// drive it with hand-built footprints. The background mesher's timer
/// wake feeds it GlobalHeap::sampleFootprint() directly.
/// samplePressure() adds the process RSS from /proc/self/statm and the
/// derived fragmentation ratio; only the pressure.* mallctl leaves
/// read it.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_RUNTIME_PRESSUREMONITOR_H
#define MESH_RUNTIME_PRESSUREMONITOR_H

#include "core/MeshStats.h"

#include <cstddef>
#include <cstdint>

namespace mesh {

class GlobalHeap;
struct MeshOptions;

/// One evaluated sample: the raw footprint plus the derived signals.
struct PressureSample {
  HeapFootprint Footprint;
  /// Process resident set from /proc/self/statm (0 when unreadable —
  /// non-Linux or a locked-down /proc). Observability only: the
  /// trigger decision uses the heap's own committed counter, which is
  /// not polluted by non-heap mappings.
  size_t RssBytes = 0;
  /// (committed - in_use) / committed in parts-per-million, clamped to
  /// [0, 1e6]. Fixed-point so it travels through the u64 mallctl
  /// surface losslessly.
  uint32_t FragPpm = 0;
};

/// Fragmentation in parts-per-million. InUse above Committed (the
/// attached-span overcount racing a commit update) clamps to 0.
uint32_t fragPpm(size_t CommittedBytes, size_t InUseBytes);

/// The trigger policy: enabled (PressureFragThresholdPct > 0), heap at
/// least PressureMinCommittedBytes, and at least the threshold share
/// of its committed memory not backing live objects.
bool underPressure(const HeapFootprint &F, const MeshOptions &Opts);

/// Resident-set bytes of this process via /proc/self/statm; 0 when
/// the read fails. Allocation-free (stack buffer + raw syscalls): it
/// runs inside an allocator.
size_t readRssBytes();

/// A fresh footprint of \p Heap (one page-table walk, see
/// GlobalHeap::sampleFootprint) plus RSS and fragmentation.
PressureSample samplePressure(const GlobalHeap &Heap);

} // namespace mesh

#endif // MESH_RUNTIME_PRESSUREMONITOR_H
