//===- Telemetry.cpp - Flight recorder + latency histogram internals ------===//

#include "support/Telemetry.h"

#include "support/Log.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace mesh {
namespace telemetry {

namespace detail {
std::atomic<uint32_t> EnabledFlag{0};
} // namespace detail

namespace {

/// One recorded event. Seq is the per-slot seqlock word: 0 or
/// in-progress means invalid, cursor+1 means the slot holds the event
/// recorded at that cursor position.
struct Slot {
  std::atomic<uint64_t> Seq;
  std::atomic<uint64_t> TimeNs;
  std::atomic<uint64_t> Meta; ///< type << 48 | arg << 32 | tid
  std::atomic<uint64_t> Payload;
};

struct alignas(64) Ring {
  std::atomic<uint64_t> Cursor;
  Slot Slots[kMaxRingEvents];
};

/// kNumRings exclusive rings + 1 shared overflow ring. Static (BSS):
/// pages are only touched once a ring is written, so the reservation
/// costs address space, not RSS.
constexpr uint32_t kOverflowRing = kNumRings;
Ring Rings[kNumRings + 1];

std::atomic<uint64_t> RingMask{kDefaultRingEvents - 1};
std::atomic<uint64_t> OverflowRecords{0};
std::atomic<uint32_t> AssignCursor{0};

/// Exclusive-ring assignment, cached in initial-exec TLS (no DTV
/// allocation, so safe to touch from inside the allocator). 0 means
/// unassigned; stores ring index + 1.
__thread uint32_t MyRingPlusOne __attribute__((tls_model("initial-exec"))) = 0;
__thread uint32_t MyTid __attribute__((tls_model("initial-exec"))) = 0;

std::atomic<uint64_t> Hists[kNumHists][kHistBuckets];

/// Process-lifetime per-type totals. The ring walk can only see the
/// newest ring-size events, so the dump's events{} object reports
/// these instead — a rare event (a fork quiesce, a degradation) stays
/// countable even after a flood of epoch_syncs wraps every ring.
std::atomic<uint64_t> TypeTotals[static_cast<size_t>(
    EventType::kNumEventTypes)];

uint32_t assignRing() {
  const uint32_t N = AssignCursor.fetch_add(1, std::memory_order_relaxed);
  MyTid = static_cast<uint32_t>(::syscall(SYS_gettid));
  const uint32_t Idx = N < kNumRings ? N : kOverflowRing;
  MyRingPlusOne = Idx + 1;
  return Idx;
}

constexpr uint64_t packMeta(EventType T, uint16_t Arg, uint32_t Tid) {
  return (static_cast<uint64_t>(static_cast<uint16_t>(T)) << 48) |
         (static_cast<uint64_t>(Arg) << 32) | Tid;
}

const char *const kEventNames[static_cast<size_t>(
    EventType::kNumEventTypes)] = {
    "mesh_pass",   "mesh_scan",    "mesh_remap",    "mesh_release",
    "bg_wake",     "epoch_sync",   "dirty_trip",    "fault_retry",
    "fault_degrade", "fork_quiesce",
};

const char *const kHistNames[kNumHists] = {
    "mesh_pass",  "mesh_scan",     "mesh_remap",    "mesh_release",
    "epoch_sync", "span_acquire",  "punch_syscall", "remap_syscall",
};

/// True for events whose payload is a duration: rendered as Chrome
/// "X" (complete) events spanning [TimeNs - Payload, TimeNs].
bool isDurationEvent(EventType T, uint16_t Arg) {
  switch (T) {
  case EventType::kMeshPass:
  case EventType::kMeshScan:
  case EventType::kMeshRemap:
  case EventType::kMeshRelease:
  case EventType::kEpochSync:
    return true;
  case EventType::kForkQuiesce:
    return Arg != kForkPrepare;
  default:
    return false;
  }
}

std::atomic<uint64_t> ForkQuiesceBeginNs{0};

} // namespace

const char *eventTypeName(EventType T) {
  const size_t I = static_cast<size_t>(T);
  return I < static_cast<size_t>(EventType::kNumEventTypes) ? kEventNames[I]
                                                            : "unknown";
}

const char *histName(HistId H) {
  return H < kNumHists ? kHistNames[H] : "unknown";
}

int histIdByName(const char *Name) {
  for (uint16_t I = 0; I < kNumHists; ++I)
    if (strcmp(Name, kHistNames[I]) == 0)
      return I;
  return -1;
}

uint64_t monotonicTimeNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

namespace detail {

void recordSlow(EventType T, uint16_t Arg, uint64_t Payload) {
  if (static_cast<size_t>(T) <
      static_cast<size_t>(EventType::kNumEventTypes))
    TypeTotals[static_cast<size_t>(T)].fetch_add(1,
                                                 std::memory_order_relaxed);
  uint32_t RingPlusOne = MyRingPlusOne;
  uint32_t Idx;
  if (__builtin_expect(RingPlusOne == 0, 0))
    Idx = assignRing();
  else
    Idx = RingPlusOne - 1;

  Ring &R = Rings[Idx];
  const uint64_t Mask = RingMask.load(std::memory_order_relaxed);
  uint64_t C;
  if (Idx != kOverflowRing) {
    // Exclusive ring: the owner is the only writer, so the cursor
    // advances with plain load/store — no RMW on the record path.
    C = R.Cursor.load(std::memory_order_relaxed);
    R.Cursor.store(C + 1, std::memory_order_relaxed);
  } else {
    C = R.Cursor.fetch_add(1, std::memory_order_relaxed);
    OverflowRecords.fetch_add(1, std::memory_order_relaxed);
  }

  Slot &S = R.Slots[C & Mask];
  // Seqlock write: invalidate, publish fields, then publish Seq with a
  // release store. Each field store is a release too, so a snapshot
  // that reads any new field (with acquire) also sees the invalidation
  // and never pairs old Seq with new fields.
  S.Seq.store(0, std::memory_order_relaxed);
  S.TimeNs.store(monotonicTimeNs(), std::memory_order_release);
  S.Meta.store(packMeta(T, Arg, MyTid), std::memory_order_release);
  S.Payload.store(Payload, std::memory_order_release);
  S.Seq.store(C + 1, std::memory_order_release);
}

void histRecordSlow(HistId H, uint64_t ValueNs) {
  if (H >= kNumHists)
    return;
  Hists[H][bucketForValue(ValueNs)].fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

void enable() { detail::EnabledFlag.store(1, std::memory_order_release); }

void disable() { detail::EnabledFlag.store(0, std::memory_order_release); }

bool setRingEvents(uint64_t Events) {
  if (enabled())
    return false;
  if (Events < kMinRingEvents || Events > kMaxRingEvents ||
      (Events & (Events - 1)) != 0)
    return false;
  RingMask.store(Events - 1, std::memory_order_relaxed);
  // Remapping cursor->slot invalidates every existing slot's Seq
  // expectation, so start the rings over.
  reset();
  return true;
}

uint64_t ringEvents() {
  return RingMask.load(std::memory_order_relaxed) + 1;
}

void reset() {
  for (Ring &R : Rings) {
    R.Cursor.store(0, std::memory_order_relaxed);
    for (Slot &S : R.Slots)
      S.Seq.store(0, std::memory_order_relaxed);
  }
  OverflowRecords.store(0, std::memory_order_relaxed);
  for (auto &T : TypeTotals)
    T.store(0, std::memory_order_relaxed);
  for (auto &H : Hists)
    for (auto &B : H)
      B.store(0, std::memory_order_relaxed);
}

uint64_t eventsRecorded() {
  uint64_t Total = 0;
  for (const Ring &R : Rings)
    Total += R.Cursor.load(std::memory_order_relaxed);
  return Total;
}

uint64_t overflowEvents() {
  return OverflowRecords.load(std::memory_order_relaxed);
}

uint64_t ringsInUse() {
  const uint32_t N = AssignCursor.load(std::memory_order_relaxed);
  return N < kNumRings ? N : kNumRings;
}

void readHistogram(HistId H, uint64_t Buckets[kHistBuckets]) {
  for (uint32_t B = 0; B < kHistBuckets; ++B)
    Buckets[B] = H < kNumHists
                     ? Hists[H][B].load(std::memory_order_relaxed)
                     : 0;
}

void forkQuiesceBegin() {
  if (!enabled())
    return;
  ForkQuiesceBeginNs.store(monotonicTimeNs(), std::memory_order_relaxed);
  detail::recordSlow(EventType::kForkQuiesce, kForkPrepare, 0);
}

void forkQuiesceEnd(bool InChild) {
  if (!enabled())
    return;
  const uint64_t Begin = ForkQuiesceBeginNs.load(std::memory_order_relaxed);
  const uint64_t Window = Begin != 0 ? monotonicTimeNs() - Begin : 0;
  detail::recordSlow(EventType::kForkQuiesce,
                     InChild ? kForkChildResume : kForkParentResume, Window);
}

namespace {

/// Tiny buffered writer over write(2): no stdio stream, no allocation,
/// so dumps work from atexit handlers and fork children.
class FileBuf {
public:
  explicit FileBuf(int Fd) : Fd(Fd) {}

  void put(const char *S, size_t N) {
    while (N > 0) {
      const size_t Room = sizeof(Buf) - Len;
      const size_t Take = N < Room ? N : Room;
      memcpy(Buf + Len, S, Take);
      Len += Take;
      S += Take;
      N -= Take;
      if (Len == sizeof(Buf))
        flush();
    }
  }

  void puts(const char *S) { put(S, strlen(S)); }

  __attribute__((format(printf, 2, 3))) void fmt(const char *Fmt, ...) {
    char Tmp[512];
    va_list Ap;
    va_start(Ap, Fmt);
    const int N = vsnprintf(Tmp, sizeof(Tmp), Fmt, Ap);
    va_end(Ap);
    if (N > 0)
      put(Tmp, static_cast<size_t>(N) < sizeof(Tmp) ? static_cast<size_t>(N)
                                                    : sizeof(Tmp) - 1);
  }

  void flush() {
    size_t Off = 0;
    while (Off < Len) {
      const ssize_t W = ::write(Fd, Buf + Off, Len - Off);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        if (Err == 0)
          Err = errno;
        break;
      }
      Off += static_cast<size_t>(W);
    }
    Len = 0;
  }

  int error() const { return Err; }

private:
  int Fd;
  size_t Len = 0;
  int Err = 0;
  char Buf[4096];
};

/// Emits "<us>.<frac3>" for a nanosecond quantity (Chrome ts/dur are
/// microseconds).
void putMicros(FileBuf &Out, uint64_t Ns) {
  Out.fmt("%llu.%03llu", static_cast<unsigned long long>(Ns / 1000),
          static_cast<unsigned long long>(Ns % 1000));
}

/// Validated read of one slot at absolute cursor position \p C.
/// Returns false when the slot was overwritten or mid-write.
bool readSlot(const Ring &R, uint64_t C, uint64_t Mask, uint64_t *TimeNs,
              uint64_t *Meta, uint64_t *Payload) {
  const Slot &S = R.Slots[C & Mask];
  const uint64_t S1 = S.Seq.load(std::memory_order_acquire);
  if (S1 != C + 1)
    return false;
  // Acquire loads: the Seq re-check below cannot move above them, and
  // a field from a newer write brings that write's Seq = 0 with it.
  *TimeNs = S.TimeNs.load(std::memory_order_acquire);
  *Meta = S.Meta.load(std::memory_order_acquire);
  *Payload = S.Payload.load(std::memory_order_acquire);
  return S.Seq.load(std::memory_order_relaxed) == S1;
}

} // namespace

int dumpTrace(const char *Path) {
  if (Path == nullptr || Path[0] == '\0')
    return EINVAL;
  const int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return errno;

  FileBuf Out(Fd);
  const int Pid = static_cast<int>(::getpid());
  const uint64_t Mask = RingMask.load(std::memory_order_relaxed);
  const uint64_t Size = Mask + 1;

  Out.puts("{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[");
  bool First = true;
  for (const Ring &R : Rings) {
    const uint64_t C = R.Cursor.load(std::memory_order_acquire);
    const uint64_t Begin = C > Size ? C - Size : 0;
    for (uint64_t I = Begin; I < C; ++I) {
      uint64_t TimeNs, Meta, Payload;
      if (!readSlot(R, I, Mask, &TimeNs, &Meta, &Payload))
        continue;
      const uint16_t RawType = static_cast<uint16_t>(Meta >> 48);
      if (RawType >= static_cast<uint16_t>(EventType::kNumEventTypes))
        continue;
      const EventType T = static_cast<EventType>(RawType);
      const uint16_t Arg = static_cast<uint16_t>(Meta >> 32);
      const uint32_t Tid = static_cast<uint32_t>(Meta);
      Out.puts(First ? "\n" : ",\n");
      First = false;
      if (isDurationEvent(T, Arg)) {
        const uint64_t Dur = Payload;
        const uint64_t Start = TimeNs > Dur ? TimeNs - Dur : 0;
        Out.fmt("{\"name\":\"%s\",\"cat\":\"mesh\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%u,\"ts\":",
                eventTypeName(T), Pid, Tid);
        putMicros(Out, Start);
        Out.puts(",\"dur\":");
        putMicros(Out, Dur);
      } else {
        Out.fmt("{\"name\":\"%s\",\"cat\":\"mesh\",\"ph\":\"i\",\"s\":\"t\","
                "\"pid\":%d,\"tid\":%u,\"ts\":",
                eventTypeName(T), Pid, Tid);
        putMicros(Out, TimeNs);
      }
      Out.fmt(",\"args\":{\"arg\":%u,\"payload\":%llu}}", Arg,
              static_cast<unsigned long long>(Payload));
    }
  }
  Out.puts("\n],\n");

  Out.fmt("\"meshTelemetry\":{\"schemaVersion\":1,\"pid\":%d,"
          "\"enabled\":%d,\"ring_events\":%llu,\"rings_in_use\":%llu,"
          "\"events_recorded\":%llu,\"overflow_events\":%llu,\n",
          Pid, enabled() ? 1 : 0,
          static_cast<unsigned long long>(ringEvents()),
          static_cast<unsigned long long>(ringsInUse()),
          static_cast<unsigned long long>(eventsRecorded()),
          static_cast<unsigned long long>(overflowEvents()));
  // Process-lifetime totals, not walk counts: a wrapped ring loses the
  // event *records* but never the fact that the type fired.
  Out.puts("\"events\":{");
  for (size_t I = 0; I < static_cast<size_t>(EventType::kNumEventTypes);
       ++I) {
    Out.fmt("%s\"%s\":%llu", I == 0 ? "" : ",", kEventNames[I],
            static_cast<unsigned long long>(
                TypeTotals[I].load(std::memory_order_relaxed)));
  }
  Out.puts("},\n\"histograms\":{");
  for (uint16_t H = 0; H < kNumHists; ++H) {
    uint64_t Buckets[kHistBuckets];
    readHistogram(static_cast<HistId>(H), Buckets);
    uint64_t Count = 0;
    for (uint64_t B : Buckets)
      Count += B;
    Out.fmt("%s\n\"%s\":{\"unit\":\"ns\",\"count\":%llu,\"buckets\":[",
            H == 0 ? "" : ",", kHistNames[H],
            static_cast<unsigned long long>(Count));
    for (uint32_t B = 0; B < kHistBuckets; ++B)
      Out.fmt("%s%llu", B == 0 ? "" : ",",
              static_cast<unsigned long long>(Buckets[B]));
    Out.puts("]}");
  }
  Out.puts("}}}\n");
  Out.flush();
  const int Err = Out.error();
  ::close(Fd);
  return Err;
}

namespace {
char TracePath[512];
void dumpTraceAtExit() {
  const int Err = dumpTrace(TracePath);
  if (Err != 0)
    logWarning("telemetry: MESH_TRACE dump to \"%s\" failed (errno %d)",
               TracePath, Err);
}
} // namespace

void maybeArmFromEnvironment() {
  static std::atomic<int> Armed{0};
  int Expected = 0;
  if (!Armed.compare_exchange_strong(Expected, 1,
                                     std::memory_order_acq_rel))
    return;
  const char *Path = getenv("MESH_TRACE");
  if (Path == nullptr || Path[0] == '\0')
    return;
  const size_t N = strlen(Path);
  if (N >= sizeof(TracePath)) {
    logWarning("telemetry: MESH_TRACE path longer than %zu bytes; ignoring",
               sizeof(TracePath) - 1);
    return;
  }
  memcpy(TracePath, Path, N + 1);
  enable();
  atexit(dumpTraceAtExit);
}

} // namespace telemetry
} // namespace mesh
