//===- WriteBarrier.h - mprotect/SIGSEGV write barrier ----------*- C++ -*-===//
///
/// \file
/// The concurrency mechanism from paper Section 4.5.2. Meshing runs
/// without stopping the world; two invariants hold throughout:
/// concurrent *reads* of objects being relocated are always correct
/// (mmap's atomic remap semantics), and objects are never *written*
/// while being relocated. The second is enforced here: before copying,
/// the mesher marks the source span read-only; a concurrent writer
/// faults into our SIGSEGV handler, which waits for the mesh epoch to
/// finish and then lets the CPU re-execute the write against the fully
/// relocated object.
///
/// The barrier is a process-wide singleton because signal dispositions
/// are process-wide. Faults at addresses outside any registered arena
/// (or inside one but unrelated to meshing, after a bounded number of
/// retries) are forwarded to the previously installed handler.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_WRITEBARRIER_H
#define MESH_CORE_WRITEBARRIER_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mesh {

class WriteBarrier {
public:
  static WriteBarrier &instance();

  /// Installs the SIGSEGV handler (idempotent).
  void ensureHandlerInstalled();

  /// Declares [\p Base, \p Base + \p Bytes) as a Mesh arena; faults in
  /// this range during a mesh epoch are barrier traffic.
  void registerArena(const void *Base, size_t Bytes);
  void unregisterArena(const void *Base);

  /// Begins a mesh epoch. Exactly one epoch may be active (the caller
  /// holds the global heap lock). While it is, a fault anywhere in a
  /// registered arena waits for endEpoch().
  void beginEpoch();

  /// Ends the epoch and releases all waiting writers.
  void endEpoch();

  /// Signal-handler entry: returns true if the fault at \p Addr was
  /// barrier traffic and has been waited out (caller should return and
  /// retry the instruction), false if it should be treated as a real
  /// crash.
  bool handleFault(const void *Addr);

  /// True while a mesh epoch is active (test hook).
  bool epochActive() const {
    return (Epoch.load(std::memory_order_acquire) & 1) != 0;
  }

private:
  WriteBarrier() = default;

  static constexpr int kMaxArenas = 16;

  bool inRegisteredArena(uintptr_t Addr) const;

  std::atomic<uintptr_t> ArenaBegin[kMaxArenas] = {};
  std::atomic<uintptr_t> ArenaEnd[kMaxArenas] = {};

  /// Odd while an epoch is active.
  std::atomic<uint64_t> Epoch{0};
  std::atomic<bool> HandlerInstalled{false};
};

} // namespace mesh

#endif // MESH_CORE_WRITEBARRIER_H
