//===- Telemetry.h - Flight recorder + slow-path latency histograms -*- C++ -*-===//
///
/// \file
/// The allocator's observability layer: a lock-free flight recorder of
/// typed events plus log2-bucketed latency histograms, both covering
/// only the slow paths (mesh passes, epoch synchronize, span
/// acquisition, arena syscalls, fault handling, fork quiesce). The
/// lock-free malloc/free fast path records nothing, ever.
///
/// Design:
///
///   - **Gate.** One process-global enabled flag. Disabled (the
///     default) every instrumentation site costs exactly one relaxed
///     load and a predicted-untaken branch — the same idiom as
///     sys::injectedFault — and takes no clock readings. Timer reads
///     the clock only when armed.
///
///   - **Flight recorder.** kNumRings fixed per-thread event rings
///     plus one shared overflow ring, all in static storage (BSS;
///     untouched pages cost no RSS). A thread is assigned an exclusive
///     ring once, cached in initial-exec TLS exactly like
///     Epoch::stripeForThisThread; threads past kNumRings share the
///     overflow ring through a fetch_add cursor. Each slot is four
///     atomic u64 words (Seq, TimeNs, Meta, Payload). The recording
///     thread writes fields with release stores and publishes with a
///     release store of Seq = cursor + 1 — a plain mov on x86, no RMW
///     on the exclusive-ring path. A dump is an epoch-style snapshot:
///     the reader walks the last ring-size cursor positions, validates
///     Seq per slot before and after reading the fields (a per-slot
///     seqlock), and silently skips slots overwritten mid-read. No
///     lock is ever taken, so recording threads are never stalled and
///     dumping is safe from a fork child or an atexit handler.
///
///   - **Histograms.** Global arrays of 64 atomic buckets per
///     histogram; value v lands in bucket floor(log2(v)) + 1 (bucket 0
///     holds zeros, the top bucket saturates). Recording is one
///     relaxed fetch_add on a slow path that just paid a syscall or a
///     pass; readout is a packed copy of the 64 counters from which
///     consumers (mallctl, bench_soak, tools/mesh-top.py) derive
///     p50/p99/p99.9.
///
/// Exposure: telemetry.* mallctl leaves (core/Runtime.cpp), a Chrome
/// trace_event JSON dump via the telemetry.dump mallctl leaf or
/// MESH_TRACE=<path> at process exit, and tools/mesh-top.py for a
/// human-readable snapshot. See DESIGN.md "Observability".
///
//===----------------------------------------------------------------------===//

#ifndef MESH_SUPPORT_TELEMETRY_H
#define MESH_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mesh {
namespace telemetry {

/// Every event class the recorder knows about. Arg and Payload are
/// per-type (documented inline); durations are nanoseconds.
enum class EventType : uint16_t {
  kMeshPass = 0, ///< Arg = origin (0 fg, 1 bg), Payload = pass ns
  kMeshScan,     ///< Arg = candidate pairs found, Payload = scan ns
  kMeshRemap,    ///< Arg = heap shard, Payload = pair remap ns
  kMeshRelease,  ///< Arg = pages released, Payload = flush ns
  kBgWake,       ///< Arg = 1 poke / 0 timer, Payload = total wakeups
  kEpochSync,    ///< Payload = synchronize wall ns
  kDirtyTrip,    ///< Arg = arena shard, Payload = dirty bytes at trip
  kFaultRetry,   ///< Arg = sys::Op, Payload = errno being retried
  kFaultDegrade, ///< Arg = DegradeKind, Payload = detail (errno/0)
  kForkQuiesce,  ///< Arg = ForkPhase, Payload = quiesce window ns
  kNumEventTypes
};

/// Arg values for kFaultDegrade.
enum DegradeKind : uint16_t {
  kDegradePunchFallback = 0, ///< hole punch -> MADV_DONTNEED fallback
  kDegradeMeshRollback,      ///< transactional mesh pass rolled back
  kDegradeEpochSeqCst,       ///< membarrier lost -> seq-cst epoch mode
  kNumDegradeKinds
};

/// Arg values for kForkQuiesce.
enum ForkPhase : uint16_t {
  kForkPrepare = 0,
  kForkParentResume,
  kForkChildResume,
};

/// The latency histograms. All record nanoseconds.
enum HistId : uint16_t {
  kHistMeshPass = 0, ///< full mesh pass wall time
  kHistMeshScan,     ///< candidate-scan phase of a pass
  kHistMeshRemap,    ///< single meshed-pair remap (copy + alias)
  kHistMeshRelease,  ///< free-span release (flushDirty) phase
  kHistEpochSync,    ///< MiniHeapEpoch.synchronize wall time
  kHistSpanAcquire,  ///< arena span acquisition on the refill path
  kHistPunchSyscall, ///< one hole-punch (fallocate) syscall
  kHistRemapSyscall, ///< one mesh remap (mmap alias) syscall
  kNumHists
};

constexpr uint32_t kHistBuckets = 64;

/// Ring geometry. kNumRings exclusive per-thread rings plus one shared
/// overflow ring; the per-ring slot count is runtime-settable between
/// kMinRingEvents and kMaxRingEvents (powers of two).
constexpr uint32_t kNumRings = 32;
constexpr uint64_t kMinRingEvents = 256;
constexpr uint64_t kMaxRingEvents = 8192;
constexpr uint64_t kDefaultRingEvents = 2048;

const char *eventTypeName(EventType T);
const char *histName(HistId H);
/// Reverse of histName; -1 when unknown.
int histIdByName(const char *Name);

namespace detail {
extern std::atomic<uint32_t> EnabledFlag;
void recordSlow(EventType T, uint16_t Arg, uint64_t Payload);
void histRecordSlow(HistId H, uint64_t ValueNs);
} // namespace detail

/// The gate every instrumentation site checks: one relaxed load,
/// branch predicted false.
inline bool enabled() {
  return __builtin_expect(
      detail::EnabledFlag.load(std::memory_order_relaxed) != 0, 0);
}

/// Records one event (no-op while disabled).
inline void event(EventType T, uint16_t Arg, uint64_t Payload) {
  if (enabled())
    detail::recordSlow(T, Arg, Payload);
}

/// Adds one nanosecond sample to histogram \p H (no-op while disabled).
inline void histRecord(HistId H, uint64_t Ns) {
  if (enabled())
    detail::histRecordSlow(H, Ns);
}

/// CLOCK_MONOTONIC in nanoseconds (the recorder's clock).
uint64_t monotonicTimeNs();

/// Reads the clock only when telemetry is enabled at construction, so
/// instrumenting a site costs zero syscalls while disabled. elapsedNs()
/// returns 0 for an unarmed timer.
class Timer {
public:
  Timer() : StartNs(enabled() ? monotonicTimeNs() : 0) {}
  bool armed() const { return StartNs != 0; }
  uint64_t elapsedNs() const {
    return StartNs == 0 ? 0 : monotonicTimeNs() - StartNs;
  }

private:
  uint64_t StartNs;
};

/// Turns recording on/off. enable() is idempotent and allocation-free.
void enable();
void disable();

/// Sets the per-ring slot count. Must be a power of two in
/// [kMinRingEvents, kMaxRingEvents] and telemetry must be disabled
/// (resizing live rings would corrupt the cursor/slot mapping).
bool setRingEvents(uint64_t Events);
uint64_t ringEvents();

/// Clears rings, histograms, and counters. Safe (but racy-benign) to
/// call while recording is live.
void reset();

/// Total events recorded (sum of ring cursors) and the subset that
/// went to the shared overflow ring (threads past kNumRings).
uint64_t eventsRecorded();
uint64_t overflowEvents();
/// Number of exclusive rings handed out so far (capped at kNumRings).
uint64_t ringsInUse();

/// Copies the 64 bucket counters of \p H into \p Buckets.
void readHistogram(HistId H, uint64_t Buckets[kHistBuckets]);

/// Bucket index for a value: 0 for 0, else min(63, floor(log2(v)) + 1).
inline uint32_t bucketForValue(uint64_t V) {
  if (V == 0)
    return 0;
  const uint32_t B = 64 - static_cast<uint32_t>(__builtin_clzll(V));
  return B < kHistBuckets ? B : kHistBuckets - 1;
}

/// Smallest value that lands in bucket \p B.
inline uint64_t bucketLowerBound(uint32_t B) {
  return B == 0 ? 0 : (UINT64_C(1) << (B - 1));
}

/// Writes a Chrome trace_event JSON snapshot (plus a "meshTelemetry"
/// sidecar object carrying counters and histogram buckets) to \p Path.
/// Allocation-free and lock-free: safe from atexit and from a fork
/// child after quiesce. Returns 0 or an errno.
int dumpTrace(const char *Path);

/// Fork-protocol hooks: Begin records kForkQuiesce/prepare and stamps
/// the window start; End records parent/child resume with the window
/// duration as payload. End is async-signal-safe (atfork child
/// context).
void forkQuiesceBegin();
void forkQuiesceEnd(bool InChild);

/// One-shot MESH_TRACE=<path> probe: when set and nonempty, enables
/// recording and registers an atexit dump to that path. Called from
/// Runtime construction so both the interposed default runtime and
/// in-process instance runtimes (benches, tests) honor it.
void maybeArmFromEnvironment();

} // namespace telemetry
} // namespace mesh

#endif // MESH_SUPPORT_TELEMETRY_H
