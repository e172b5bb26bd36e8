//===- Common.h - Shared constants and primitive types ---------*- C++ -*-===//
///
/// \file
/// Process-wide constants shared by every Mesh module: the hardware page
/// size, span limits, and the compile-time tunables from the paper
/// (maximum objects per span, maximum meshes per MiniHeap, SplitMesher's
/// probe budget).
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_COMMON_H
#define MESH_SUPPORT_COMMON_H

#include <cstddef>
#include <cstdint>

namespace mesh {

/// Hardware page size on x86-64 / aarch64 Linux.
inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageShift = 12;

/// Maximum number of objects in a span (so shuffle-vector entries fit in
/// one byte; see paper Section 4.2).
inline constexpr uint32_t kMaxObjectsPerSpan = 256;

/// Minimum number of objects per span; amortizes the cost of reserving
/// a span from the global heap (paper Section 4).
inline constexpr uint32_t kMinObjectsPerSpan = 8;

/// Smallest size class. Objects below this are rounded up.
inline constexpr size_t kMinObjectSize = 16;

/// Largest size-class-allocated object; anything bigger is a large
/// object fulfilled directly by the global heap (paper Section 4.3).
inline constexpr size_t kMaxSizeClassedObject = 16384;

/// Object sizes of at least this many bytes are page-aligned and their
/// spans are never meshing candidates (paper Section 4: "Objects of 4KB
/// and larger ... are not considered for meshing").
inline constexpr size_t kMinNonMeshableObjectSize = 4096;

/// Maximum number of virtual spans that may share one physical span.
/// A mesh of two MiniHeaps whose combined virtual-span count exceeds
/// this limit is rejected by the meshability predicate.
inline constexpr uint32_t kMaxMeshes = 8;

/// Default SplitMesher probe budget t (paper Section 3.3: "t = 64
/// balances runtime and meshing effectiveness").
inline constexpr uint32_t kDefaultMeshProbes = 64;

/// Largest accepted probe budget (MESH_PROBES and the mesh.probes
/// mallctl leaf); the smallest is 1.
inline constexpr uint32_t kMaxMeshProbes = 1u << 20;

/// Dirty pages accumulate up to this budget before being returned to
/// the OS (paper Section 4.4.1: 64 MB).
inline constexpr size_t kMaxDirtyBytes = 64 * 1024 * 1024;

/// Default minimum interval between meshing passes (paper Section 4.5:
/// "at most once every tenth of a second").
inline constexpr uint64_t kDefaultMeshPeriodMs = 100;

/// Converts a byte count to a page count, rounding up.
inline constexpr size_t bytesToPages(size_t Bytes) {
  return (Bytes + kPageSize - 1) >> kPageShift;
}

inline constexpr size_t pagesToBytes(size_t Pages) {
  return Pages << kPageShift;
}

} // namespace mesh

#endif // MESH_SUPPORT_COMMON_H
