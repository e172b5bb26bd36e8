//===- Sys.h - Syscall seam with deterministic fault injection --*- C++ -*-===//
///
/// \file
/// Every arena-facing syscall goes through the wrappers below instead
/// of calling the kernel directly. The seam buys two things:
///
///   1. Bounded transient-retry in one place: EINTR/EAGAIN from any
///      wrapped call is retried a fixed number of times, so callers
///      only ever see hard failures.
///   2. Deterministic fault injection for testing the degradation
///      paths, configured via MESH_FAULT_INJECT (or programmatically
///      with configureFaults). The format is a ';'-separated list of
///
///        <op>:<errno>:every=<N>
///        <op>:<errno>:rate=<N>[,seed=<S>]
///
///      where <op> is one of memfd_create, ftruncate, mmap, munmap,
///      fallocate, madvise, mprotect, membarrier, commit, or all;
///      <errno> is a symbolic name (ENOMEM, ENOSPC, EINTR, EAGAIN,
///      EMFILE, ENFILE, ENOSYS, EPERM, EINVAL) or a decimal number. every=N fails every Nth call of that op
///      deterministically; rate=N fails ~1-in-N calls drawn from a
///      seeded splitmix64 stream. "commit" is a pseudo-op: the arena's
///      commit accounting gate, which has no real syscall behind it
///      (see DESIGN.md "Failure policy" for why it is injectable).
///      Invalid specs warn and leave injection off, matching the
///      envU64/envBool contract.
///
/// Cost when off: one relaxed atomic load and a predictable branch per
/// wrapped call.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_SYS_H
#define MESH_SUPPORT_SYS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sys/types.h>

namespace mesh {
namespace sys {

/// The wrapped operations, one bit each in the armed mask.
enum Op : unsigned {
  kMemfdCreate,
  kFtruncate,
  kMmap,
  kMunmap,
  kFallocate,
  kMadvise,
  kMprotect,
  kMembarrier, ///< membarrier(2): the epoch's synchronize-side fence.
  kCommit,     ///< Pseudo-op: the arena's commit-accounting gate.
  kNumOps
};

namespace detail {

/// Bits [0, kNumOps) arm injection per op. The sentinel bit marks
/// "MESH_FAULT_INJECT not parsed yet": the first wrapped call parses
/// the environment lazily (getenv neither allocates nor locks, and the
/// first arena call may run inside malloc during preload bring-up).
constexpr uint32_t kEnvUnparsed = 0x80000000u;
extern std::atomic<uint32_t> ArmedMask;

/// Slow path: parses the environment (first call) and/or consults the
/// per-op plan. Returns true when this call must fail, with *Err set.
bool shouldInjectSlow(Op O, int *Err);

} // namespace detail

/// One relaxed load when injection is off — the entire disabled-mode
/// cost of the seam.
inline bool injectedFault(Op O, int *Err) {
  const uint32_t Mask = detail::ArmedMask.load(std::memory_order_relaxed);
  if (__builtin_expect(Mask == 0, 1))
    return false;
  return detail::shouldInjectSlow(O, Err);
}

/// memfd_create(2). Returns the fd, or -1 with errno set.
int memfdCreate(const char *Name, unsigned Flags);
/// ftruncate(2). Returns 0, or -1 with errno set.
int ftruncateFd(int Fd, off_t Length);
/// mmap(2). Returns the mapping, or MAP_FAILED with errno set.
void *mmapPtr(void *Addr, size_t Length, int Prot, int Flags, int Fd,
              off_t Offset);
/// munmap(2). Returns 0, or -1 with errno set.
int munmapPtr(void *Addr, size_t Length);
/// fallocate(2). Returns 0, or -1 with errno set.
int fallocateFd(int Fd, int Mode, off_t Offset, off_t Length);
/// madvise(2). Returns 0, or -1 with errno set.
int madvisePtr(void *Addr, size_t Length, int Advice);
/// mprotect(2). Returns 0, or -1 with errno set.
int mprotectPtr(void *Addr, size_t Length, int Prot);
/// membarrier(2) via syscall(2) — glibc has no wrapper. Returns the
/// raw result (>= 0 success; QUERY returns the command bitmask), or
/// -1 with errno set (ENOSYS on pre-4.3 kernels and under seccomp
/// policies that blanket-deny unknown syscalls). Injection on this op
/// is how tests force the epoch's seq-cst fallback at runtime.
int membarrierCall(int Cmd, unsigned Flags);

/// The commit pseudo-op: no syscall, just the injection gate. Returns
/// true to proceed; false (with errno set) simulates the kernel
/// refusing to back the pages — the failure that, un-injected, would
/// arrive later as SIGBUS at first touch.
bool commitGate();

/// Replaces the active fault plan with \p Spec (same grammar as
/// MESH_FAULT_INJECT; nullptr or "" disarms). Returns false — leaving
/// injection off — when the spec does not parse. Not thread-safe
/// against concurrent wrapped calls racing the swap in the sense that
/// a call in flight may draw from either plan; tests quiesce first.
bool configureFaults(const char *Spec);

/// Disarms injection and forgets the plan. The environment is not
/// re-read afterwards.
void clearFaults();

/// Total faults injected / transient retries performed, process-wide.
uint64_t faultsInjected();
uint64_t faultsRetried();

/// Zeroes both counters (the faults.reset mallctl leaf) so tests can
/// assert per-phase deltas instead of process-lifetime totals.
void resetFaultCounters();

} // namespace sys
} // namespace mesh

#endif // MESH_SUPPORT_SYS_H
