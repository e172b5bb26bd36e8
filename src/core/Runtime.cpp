//===- Runtime.cpp - Per-heap runtime facade --------------------------------===//

#include "core/Runtime.h"

#include "runtime/BackgroundMesher.h"
#include "runtime/PressureMonitor.h"
#include "support/Epoch.h"
#include "support/InternalHeap.h"
#include "support/Log.h"
#include "support/MathUtils.h"
#include "support/Sys.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <iterator>
#include <unistd.h>

namespace mesh {

namespace detail {
SpinLock ForkRegistryLock;
} // namespace detail

/// Process-wide fork protocol. pthread_atfork handlers can never be
/// removed, so one static set is installed at first Runtime creation
/// and walks a registry of live runtimes. At fork():
///
///   prepare  — per runtime: join the background mesher (so the fork
///              happens with no allocator-owned thread at all), then
///              acquire every heap lock in rank order (MeshLock ->
///              shards ascending -> ArenaLock -> EpochSyncLock); last,
///              the process-wide InternalHeap lock (it ranks below
///              ArenaLock: refills allocate metadata under it). The
///              child therefore inherits every lock in the released
///              state with no critical section torn mid-way.
///   parent   — wait on the copy fence (below), then release in
///              reverse and restart the meshers.
///   child    — FIRST rebuild every runtime's arena on a private memfd
///              (GlobalHeap::reinitializeArenaAfterFork, the
///              copy-to-fresh-memfd protocol): the child inherits
///              MAP_SHARED arena data pages under COW-private
///              allocator metadata, so without this both sides hand
///              out the same slots and corrupt each other. Then signal
///              the copy fence, clear epoch reader counts orphaned by
///              parent threads that do not exist here, and release.
///              The mesher is NOT restarted here: pthread_create is
///              not async-signal-safe in the forked child of a
///              multithreaded process, so the child handler only
///              re-initializes the mesher's wake mutex/condvar (a
///              poking parent thread may have owned the mutex at the
///              fork instant) and defers the thread spawn to the first
///              post-fork poke — which is also why the arena rebuild
///              must come first: by the time any deferred restart (or
///              any allocation at all) can run in the child, the
///              shared file is already out of the picture.
///
/// The copy fence: prepare() opens a pipe. The child copies span
/// contents out of the *shared* memfd using its fork-instant metadata
/// snapshot; if the parent released its heap locks first, a parent
/// mutator could rewrite or punch the very pages mid-copy. So the
/// parent handler blocks on the pipe until the child reports the copy
/// done (or EOF — a failed fork() or a child that aborted mid-reinit —
/// which releases the fence just the same). The reference
/// implementation uses the identical fence for the identical reason.
class RuntimeForkSupport {
public:
  static void registerRuntime(Runtime *R) {
    pthread_once(&Once, installHandlers);
    SpinLockGuard Guard(detail::ForkRegistryLock);
    R->NextRuntime = Head;
    R->PrevRuntime = nullptr;
    if (Head != nullptr)
      Head->PrevRuntime = R;
    Head = R;
  }

  static void unregisterRuntime(Runtime *R) {
    SpinLockGuard Guard(detail::ForkRegistryLock);
    if (R->PrevRuntime != nullptr)
      R->PrevRuntime->NextRuntime = R->NextRuntime;
    else
      Head = R->NextRuntime;
    if (R->NextRuntime != nullptr)
      R->NextRuntime->PrevRuntime = R->PrevRuntime;
    R->PrevRuntime = R->NextRuntime = nullptr;
  }

  /// Creates and starts \p R's background mesher under the registry
  /// lock, so mesher bring-up cannot interleave with a concurrent
  /// fork: prepare() holds RegistryLock for the whole fork window,
  /// which means it either sees BgMesher null (not created yet — the
  /// parent finishes construction afterwards; in the child the
  /// constructing thread is gone and the mesher simply never existed)
  /// or sees a fully started mesher it can quiesce. Without this, a
  /// fork could snapshot Running=false, then race start(): the child
  /// would inherit Running=true with no thread — swallowed pokes, and
  /// a join of a nonexistent thread at teardown.
  static void createMesher(Runtime *R, uint64_t WakeMs,
                           const PressureConfig &Cfg) {
    SpinLockGuard Guard(detail::ForkRegistryLock);
    // The mesher gets the registry lock as its lifecycle lock so its
    // deferred post-fork restart serializes against prepare() the same
    // way this initial bring-up does.
    R->BgMesher = InternalHeap::global().makeNew<BackgroundMesher>(
        R->Global, WakeMs, Cfg, detail::ForkRegistryLock);
    R->BgMesher->start();
  }

private:
  // prepare/parent/child: MESH_NO_THREAD_SAFETY_ANALYSIS. The fork
  // window is the canonical cross-function hold the analysis cannot
  // express — prepare() acquires the registry lock (plus every heap
  // lock, via lockForFork) and returns with them held; the matching
  // releases happen in parent() or child(), in a different function on
  // the other side of fork(). Runtime enforcement still applies: the
  // Debug lock-rank checker validates the acquisition order here.
  static void prepare() MESH_NO_THREAD_SAFETY_ANALYSIS {
    telemetry::forkQuiesceBegin();
    detail::ForkRegistryLock.lock();
    for (Runtime *R = Head; R != nullptr; R = R->NextRuntime) {
      if (R->BgMesher != nullptr)
        R->BgMesher->quiesceForFork();
      R->Global.lockForFork();
      // Flush dirty bins while allocation is still legal (the
      // InternalHeap lock below is not yet held): the child's arena
      // rebuild skips dirty spans, and the child itself must not
      // allocate — see GlobalHeap::flushDirtyForFork.
      R->Global.flushDirtyForFork();
    }
    InternalHeap::global().lockForFork();
    // The copy fence (see the class comment). On the off chance the
    // pipe cannot be created, fork proceeds unfenced — the child's
    // copy then races parent mutators, which is still strictly better
    // than sharing the file forever — with a warning so the condition
    // is visible.
    if (pipe2(ForkFence, O_CLOEXEC) != 0) {
      ForkFence[0] = ForkFence[1] = -1;
      logWarning("fork copy-fence pipe creation failed (errno %d); "
                 "forking without the parent-side fence",
                 errno);
    }
  }

  static void parent() MESH_NO_THREAD_SAFETY_ANALYSIS {
    // Fence before any unlock: no parent mutator may touch the shared
    // file while the child is copying out of it. EOF covers both the
    // failed-fork case (no child ever held the write end) and a child
    // that aborted mid-reinitialization.
    if (ForkFence[0] >= 0) {
      close(ForkFence[1]);
      char Byte;
      ssize_t N;
      do {
        N = read(ForkFence[0], &Byte, 1);
      } while (N < 0 && errno == EINTR);
      close(ForkFence[0]);
      ForkFence[0] = ForkFence[1] = -1;
    }
    InternalHeap::global().unlockForFork();
    for (Runtime *R = Head; R != nullptr; R = R->NextRuntime) {
      R->Global.unlockForFork();
      if (R->BgMesher != nullptr)
        R->BgMesher->resumeAfterForkParent();
    }
    detail::ForkRegistryLock.unlock();
    telemetry::forkQuiesceEnd(/*InChild=*/false);
  }

  static void child() MESH_NO_THREAD_SAFETY_ANALYSIS {
    // Re-arm the expedited membarrier first: registration is per-mm
    // and must not be trusted to survive fork. Falls back to the
    // seq-cst protocol if the re-registration fails, so the epoch
    // resets below always land in a sound mode. One syscall,
    // async-signal-safe.
    Epoch::reinitFenceModeAfterFork();
    // Arena rebuild next, with every lock still inherited held and
    // the parent fenced: after this loop the child owns private
    // file-backed storage and nothing in this process can reach the
    // parent's pages. Ordered strictly before the mesher child
    // recovery below — the deferred restart it arms is consumed by the
    // first post-fork allocation, which must already see the fresh
    // arena.
    for (Runtime *R = Head; R != nullptr; R = R->NextRuntime)
      R->Global.reinitializeArenaAfterFork();
    if (ForkFence[1] >= 0) {
      close(ForkFence[0]);
      const char Byte = 1;
      ssize_t N;
      do {
        N = write(ForkFence[1], &Byte, 1);
      } while (N < 0 && errno == EINTR);
      close(ForkFence[1]);
      ForkFence[0] = ForkFence[1] = -1;
    }
    InternalHeap::global().unlockForFork();
    for (Runtime *R = Head; R != nullptr; R = R->NextRuntime) {
      R->Global.resetEpochAfterFork();
      R->Global.unlockForFork();
      if (R->BgMesher != nullptr)
        R->BgMesher->resumeAfterForkChild();
    }
    detail::ForkRegistryLock.unlock();
    telemetry::forkQuiesceEnd(/*InChild=*/true);
  }

  static void installHandlers() { pthread_atfork(prepare, parent, child); }

  static Runtime *Head MESH_GUARDED_BY(detail::ForkRegistryLock);
  static pthread_once_t Once;
  static int ForkFence[2];
};

Runtime *RuntimeForkSupport::Head = nullptr;
pthread_once_t RuntimeForkSupport::Once = PTHREAD_ONCE_INIT;
int RuntimeForkSupport::ForkFence[2] = {-1, -1};

namespace {

/// TLS heap cache: the last (runtime id, heap) pair this thread
/// resolved. initial-exec so the accesses themselves can never
/// allocate (they run inside malloc). Runtime ids are never reused, so
/// a Runtime constructed at a recycled address cannot alias a stale
/// entry; a dead runtime's id simply never matches again.
__thread uint64_t CachedRuntimeId
    __attribute__((tls_model("initial-exec"))) = 0;
__thread ThreadLocalHeap *CachedHeap
    __attribute__((tls_model("initial-exec"))) = nullptr;

/// Id 0 is reserved as "no cache".
std::atomic<uint64_t> NextRuntimeId{1};

} // namespace

Runtime::Runtime(const MeshOptions &Opts)
    : Global(Opts),
      Id(NextRuntimeId.fetch_add(1, std::memory_order_relaxed)) {
  // Decide the epoch fence protocol eagerly (query + register the
  // expedited membarrier): the lazy path would otherwise take the
  // first registration syscall inside a hot free.
  Epoch::decideFenceMode();
  // MESH_TRACE honors every runtime in the process (the interposed
  // default and in-process instance heaps alike); the probe is
  // one-shot and the dump registers once.
  telemetry::maybeArmFromEnvironment();
  if (pthread_key_create(&HeapKey, destroyThreadHeap) != 0)
    fatalError("pthread_key_create failed");
  RuntimeForkSupport::registerRuntime(this);
  if (Opts.BackgroundMeshing && Opts.MeshingEnabled) {
    PressureConfig Cfg;
    Cfg.FragThresholdPct = Opts.PressureFragThresholdPct;
    Cfg.MinCommittedBytes = Opts.PressureMinCommittedBytes;
    // Under the fork-registry lock: bring-up must not interleave with
    // a concurrent fork's quiesce (see createMesher).
    RuntimeForkSupport::createMesher(this, Opts.BackgroundWakeMs, Cfg);
  }
}

Runtime::~Runtime() {
  // Leave the fork registry first: from here a concurrent fork no
  // longer touches this runtime's (dying) state.
  RuntimeForkSupport::unregisterRuntime(this);
  // Join the mesher before any heap state goes away; its destructor
  // stops the thread.
  if (BgMesher != nullptr) {
    InternalHeap::global().deleteObj(BgMesher);
    BgMesher = nullptr;
  }
  // Release the calling thread's heap explicitly; heaps of other live
  // threads are reclaimed by their pthread destructors, which must run
  // before the Runtime is destroyed (standard teardown ordering for
  // instance heaps; the process-default Runtime is never destroyed).
  if (auto *Heap = static_cast<ThreadLocalHeap *>(
          pthread_getspecific(HeapKey))) {
    pthread_setspecific(HeapKey, nullptr);
    if (CachedHeap == Heap) {
      CachedRuntimeId = 0;
      CachedHeap = nullptr;
    }
    InternalHeap::global().deleteObj(Heap);
  }
  pthread_key_delete(HeapKey);
}

void Runtime::destroyThreadHeap(void *Arg) {
  auto *Heap = static_cast<ThreadLocalHeap *>(Arg);
  // Runs on the exiting thread, so this clears that thread's own
  // cache. A later-round TSD destructor that allocates again simply
  // takes the slow path and builds a fresh heap.
  if (CachedHeap == Heap) {
    CachedRuntimeId = 0;
    CachedHeap = nullptr;
  }
  InternalHeap::global().deleteObj(Heap);
}

ThreadLocalHeap &Runtime::localHeap() {
  if (CachedRuntimeId == Id)
    return *CachedHeap;
  return localHeapSlow();
}

ThreadLocalHeap &Runtime::localHeapSlow() {
  auto *Heap = static_cast<ThreadLocalHeap *>(pthread_getspecific(HeapKey));
  if (Heap == nullptr) {
    Heap = InternalHeap::global().makeNew<ThreadLocalHeap>(
        &Global, Global.options().Seed ^
                     reinterpret_cast<uintptr_t>(pthread_self()));
    pthread_setspecific(HeapKey, Heap);
  }
  CachedRuntimeId = Id;
  CachedHeap = Heap;
  return *Heap;
}

void *Runtime::malloc(size_t Bytes) { return localHeap().malloc(Bytes); }

void Runtime::free(void *Ptr) { localHeap().free(Ptr); }

void *Runtime::calloc(size_t Count, size_t Size) {
  if (Count != 0 && Size > SIZE_MAX / Count)
    return nullptr; // Multiplication would overflow.
  const size_t Bytes = Count * Size;
  int SizeClass;
  if (!sizeClassForSize(Bytes, &SizeClass)) {
    // Large allocations served from a freshly committed span are
    // demand-zero memfd pages; only recycled dirty spans need the
    // memset.
    bool Zeroed = false;
    void *Ptr = Global.largeAllocZeroed(Bytes, &Zeroed);
    if (Ptr != nullptr && !Zeroed)
      memset(Ptr, 0, Bytes);
    return Ptr;
  }
  void *Ptr = malloc(Bytes);
  if (Ptr != nullptr)
    memset(Ptr, 0, Bytes);
  return Ptr;
}

void *Runtime::realloc(void *Ptr, size_t Bytes) {
  if (Ptr == nullptr)
    return malloc(Bytes);
  if (Bytes == 0) {
    free(Ptr);
    return nullptr;
  }
  const size_t Usable = usableSize(Ptr);
  if (Usable == 0) {
    logWarning("realloc of unknown pointer %p", Ptr);
    return nullptr;
  }
  // Grow/shrink in place when the slot still fits and is not wasteful.
  if (Bytes <= Usable && Bytes >= Usable / 2)
    return Ptr;
  void *Fresh = malloc(Bytes);
  if (Fresh == nullptr)
    return nullptr;
  memcpy(Fresh, Ptr, Bytes < Usable ? Bytes : Usable);
  free(Ptr);
  return Fresh;
}

int Runtime::posixMemalign(void **Out, size_t Alignment, size_t Bytes) {
  if (Out == nullptr || !isPowerOfTwo(Alignment) ||
      Alignment % sizeof(void *) != 0)
    return EINVAL;
  if (Alignment <= kMinObjectSize) {
    // Every size-classed slot is at least 16-byte aligned.
    *Out = malloc(Bytes);
    return *Out == nullptr ? ENOMEM : 0;
  }
  if (Alignment <= kMaxSizeClassedObject && Bytes <= kMaxSizeClassedObject) {
    // Serve from the power-of-two class >= max(size, alignment): slots
    // are ObjectSize-aligned within page-aligned spans.
    const size_t Rounded =
        roundUpToPowerOfTwo(Bytes > Alignment ? Bytes : Alignment);
    *Out = malloc(Rounded);
    return *Out == nullptr ? ENOMEM : 0;
  }
  if (Alignment <= kPageSize) {
    // Large objects are always page-aligned.
    *Out = Global.largeAlloc(Bytes);
    return *Out == nullptr ? ENOMEM : 0;
  }
  // Alignments beyond a page are rare; unsupported in this build.
  return EINVAL;
}

size_t Runtime::usableSize(const void *Ptr) const {
  if (Ptr == nullptr)
    return 0;
  return Global.usableSize(Ptr);
}

namespace {

/// The caller's buffers for one mallctl call.
struct MallctlCall {
  void *OldP;
  size_t *OldLenP;
  const void *NewP;
  size_t NewLen;
};

/// Serves the whole call for a leaf with its own buffer shape.
using MallctlHandler = int (*)(Runtime &, const char *Name,
                               const MallctlCall &);

/// One mallctl leaf. Most leaves read as a u64 (Get); a writable one
/// also accepts a NewP of exactly WriteBytes (Set, false = EINVAL). The
/// rest have a Handle instead.
struct MallctlLeaf {
  const char *Name;
  uint64_t (*Get)(Runtime &) = nullptr;
  bool (*Set)(Runtime &, uint64_t) = nullptr;
  size_t WriteBytes = sizeof(uint64_t);
  MallctlHandler Handle = nullptr;
};

/// A row served entirely by \p Handle.
constexpr MallctlLeaf handled(const char *Name, MallctlHandler Handle) {
  return {Name, nullptr, nullptr, 0, Handle};
}

template <std::atomic<uint64_t> MeshStats::*Counter>
uint64_t stat(Runtime &R) {
  return (R.global().stats().*Counter).load(std::memory_order_relaxed);
}

/// The background.* leaves read 0 when the runtime has no mesher, so
/// callers need no mode probing.
template <auto Member> uint64_t background(Runtime &R) {
  const BackgroundMesher *Mesher = R.backgroundMesher();
  return Mesher != nullptr ? (Mesher->*Member)() : 0;
}

/// Always a fresh sample (no allocation): observability should not
/// depend on whether the mesher happens to have woken recently. Only a
/// registered pressure.* name pays for the page-table walk.
PressureSample pressure(Runtime &R) {
  GlobalHeapFootprintSource Src(R.global());
  PressureConfig Cfg;
  Cfg.FragThresholdPct = R.global().options().PressureFragThresholdPct;
  Cfg.MinCommittedBytes = R.global().options().PressureMinCommittedBytes;
  return PressureMonitor(Src, Cfg).sample();
}

/// telemetry.hist.<name>: the packed 64 x u64 bucket counters.
int readHist(Runtime &, const char *Name, const MallctlCall &C) {
  constexpr size_t Bytes = telemetry::kHistBuckets * sizeof(uint64_t);
  const int H = telemetry::histIdByName(Name + strlen("telemetry.hist."));
  if (H < 0)
    return ENOENT;
  if (C.OldP == nullptr || C.OldLenP == nullptr || *C.OldLenP < Bytes)
    return EINVAL;
  telemetry::readHistogram(static_cast<telemetry::HistId>(H),
                           static_cast<uint64_t *>(C.OldP));
  *C.OldLenP = Bytes;
  return 0;
}

/// telemetry.dump: NewP carries the output path, with or without a
/// trailing NUL.
int dumpTrace(Runtime &, const char *, const MallctlCall &C) {
  if (C.NewP == nullptr || C.NewLen == 0)
    return EINVAL;
  char Path[512];
  size_t N = C.NewLen;
  if (static_cast<const char *>(C.NewP)[N - 1] == '\0')
    --N;
  if (N == 0 || N >= sizeof(Path))
    return EINVAL;
  memcpy(Path, C.NewP, N);
  Path[N] = '\0';
  return telemetry::dumpTrace(Path);
}

int listLeaves(Runtime &, const char *, const MallctlCall &C);

// Rows are in version.leaves order; src/api/mesh/mesh.h documents each
// one, and tests/core/MallctlLeavesTest.cpp pins the two together.
constexpr MallctlLeaf kMallctlTable[] = {
    {"mesh.enabled",
     [](Runtime &R) -> uint64_t { return R.global().meshingEnabled(); },
     [](Runtime &R, uint64_t V) {
       R.global().setMeshingEnabled(V != 0);
       return true;
     },
     sizeof(bool)},
    {"mesh.period_ms",
     [](Runtime &R) -> uint64_t { return R.global().meshPeriodMs(); },
     [](Runtime &R, uint64_t V) {
       R.global().setMeshPeriodMs(V);
       return true;
     }},
    {"mesh.probes",
     [](Runtime &R) -> uint64_t { return R.global().meshProbes(); },
     [](Runtime &R, uint64_t V) {
       R.global().setMeshProbes(static_cast<uint32_t>(V));
       return true;
     }},
    {"mesh.max_per_pass",
     [](Runtime &R) -> uint64_t { return R.global().maxMeshesPerPass(); },
     [](Runtime &R, uint64_t V) {
       R.global().setMaxMeshesPerPass(static_cast<uint32_t>(V));
       return true;
     }},
    {"mesh.now", [](Runtime &R) -> uint64_t { return R.meshNow(); }},
    {"background.enabled", background<&BackgroundMesher::running>},
    {"background.wakeups", background<&BackgroundMesher::wakeups>},
    {"background.requests", background<&BackgroundMesher::requests>},
    {"background.passes", background<&BackgroundMesher::passes>},
    {"background.poke_passes", background<&BackgroundMesher::pokePasses>},
    {"background.pressure_passes",
     background<&BackgroundMesher::pressurePasses>},
    {"pressure.frag_ppm",
     [](Runtime &R) -> uint64_t { return pressure(R).FragPpm; }},
    {"pressure.rss_bytes",
     [](Runtime &R) -> uint64_t { return pressure(R).RssBytes; }},
    {"pressure.committed_bytes",
     [](Runtime &R) -> uint64_t {
       return pressure(R).Footprint.CommittedBytes;
     }},
    {"pressure.in_use_bytes",
     [](Runtime &R) -> uint64_t { return pressure(R).Footprint.InUseBytes; }},
    {"pressure.span_bytes",
     [](Runtime &R) -> uint64_t { return pressure(R).Footprint.SpanBytes; }},
    {"heap.num_shards",
     [](Runtime &) -> uint64_t { return GlobalHeap::kNumShards; }},
    {"heap.flush_dirty",
     [](Runtime &R) -> uint64_t { return R.global().flushDirtyPages(); }},
    // 1 = asymmetric (expedited membarrier), 2 = seq-cst fallback; 0
    // (undecided) is unreachable since the Runtime ctor decides.
    {"epoch.fence_mode",
     [](Runtime &) { return static_cast<uint64_t>(Epoch::fenceMode()); }},
    {"stats.dirty_bytes",
     [](Runtime &R) -> uint64_t { return R.global().dirtyBytes(); }},
    {"stats.bytes_copied", stat<&MeshStats::BytesCopied>},
    {"stats.mesh_passes",
     [](Runtime &R) { return R.global().stats().meshPasses(); }},
    {"stats.mesh_passes_foreground", stat<&MeshStats::MeshPassesForeground>},
    {"stats.mesh_passes_background", stat<&MeshStats::MeshPassesBackground>},
    {"stats.max_pause_foreground_ns", stat<&MeshStats::MaxForegroundPassNs>},
    {"stats.max_pause_background_ns", stat<&MeshStats::MaxBackgroundPassNs>},
    {"stats.committed_bytes",
     [](Runtime &R) -> uint64_t { return R.committedBytes(); }},
    {"stats.peak_committed_bytes",
     [](Runtime &R) -> uint64_t {
       return pagesToBytes(stat<&MeshStats::PeakCommittedPages>(R));
     }},
    // Committed minus meshed-away pages and punched holes: the meshing
    // effectiveness number the soak harness tracks.
    {"stats.kernel_file_bytes",
     [](Runtime &R) -> uint64_t {
       return pagesToBytes(R.global().kernelFilePages());
     }},
    {"stats.mesh_count", stat<&MeshStats::MeshCount>},
    {"stats.pages_meshed", stat<&MeshStats::PagesMeshed>},
    {"stats.mesh_ns", stat<&MeshStats::TotalMeshNs>},
    {"stats.max_pause_ns",
     [](Runtime &R) { return R.global().stats().maxPassNs(); }},
    // Degradation observability (DESIGN.md "Failure policy"): injected
    // and retried count the fault injector at the syscall seam; the
    // rest count real degradations taken, injected or not.
    {"faults.injected", [](Runtime &) { return sys::faultsInjected(); }},
    {"faults.retried", [](Runtime &) { return sys::faultsRetried(); }},
    {"faults.oom_returns", stat<&MeshStats::OomReturns>},
    {"faults.mesh_rollbacks", stat<&MeshStats::MeshRollbacks>},
    {"faults.punch_fallbacks",
     [](Runtime &R) { return R.global().punchFallbackCount(); }},
    handled("faults.reset",
            [](Runtime &R, const char *, const MallctlCall &) {
              sys::resetFaultCounters();
              R.global().resetFaultCounters();
              return 0;
            }),
    {"telemetry.enabled",
     [](Runtime &) -> uint64_t { return telemetry::enabled(); },
     [](Runtime &, uint64_t V) {
       V != 0 ? telemetry::enable() : telemetry::disable();
       return true;
     },
     sizeof(bool)},
    {"telemetry.ring_size",
     [](Runtime &) -> uint64_t { return telemetry::ringEvents(); },
     [](Runtime &, uint64_t V) { return telemetry::setRingEvents(V); }},
    {"telemetry.events",
     [](Runtime &) -> uint64_t { return telemetry::eventsRecorded(); }},
    {"telemetry.overflow_events",
     [](Runtime &) -> uint64_t { return telemetry::overflowEvents(); }},
    {"telemetry.rings_in_use",
     [](Runtime &) -> uint64_t { return telemetry::ringsInUse(); }},
    handled("telemetry.reset",
            [](Runtime &, const char *, const MallctlCall &) {
              telemetry::reset();
              return 0;
            }),
    handled("telemetry.dump", dumpTrace),
    handled("telemetry.hist.mesh_pass", readHist),
    handled("telemetry.hist.mesh_scan", readHist),
    handled("telemetry.hist.mesh_remap", readHist),
    handled("telemetry.hist.mesh_release", readHist),
    handled("telemetry.hist.epoch_sync", readHist),
    handled("telemetry.hist.span_acquire", readHist),
    handled("telemetry.hist.punch_syscall", readHist),
    handled("telemetry.hist.remap_syscall", readHist),
    handled("version.leaves", listLeaves),
};

/// version.leaves: every row's name, newline-joined and NUL-terminated.
/// A null OldP reports the required buffer size.
int listLeaves(Runtime &, const char *, const MallctlCall &C) {
  size_t Needed = 1;
  for (const MallctlLeaf &Leaf : kMallctlTable)
    Needed += strlen(Leaf.Name) + 1;
  if (C.OldLenP == nullptr)
    return EINVAL;
  if (C.OldP == nullptr) {
    *C.OldLenP = Needed;
    return 0;
  }
  if (*C.OldLenP < Needed)
    return EINVAL;
  char *Out = static_cast<char *>(C.OldP);
  for (const MallctlLeaf &Leaf : kMallctlTable) {
    const size_t N = strlen(Leaf.Name);
    memcpy(Out, Leaf.Name, N);
    Out += N;
    *Out++ = '\n';
  }
  *Out = '\0';
  *C.OldLenP = Needed;
  return 0;
}

} // namespace

int Runtime::mallctl(const char *Name, void *OldP, size_t *OldLenP,
                     void *NewP, size_t NewLen) {
  const MallctlLeaf *Leaf = std::find_if(
      std::begin(kMallctlTable), std::end(kMallctlTable),
      [&](const MallctlLeaf &Row) { return strcmp(Row.Name, Name) == 0; });
  if (Leaf == std::end(kMallctlTable))
    return ENOENT;
  if (Leaf->Handle != nullptr)
    return Leaf->Handle(*this, Name, {OldP, OldLenP, NewP, NewLen});
  if (NewP != nullptr && Leaf->Set != nullptr) {
    if (NewLen != Leaf->WriteBytes)
      return EINVAL;
    uint64_t Value = 0; // A bool lands in one byte: nonzero is true.
    memcpy(&Value, NewP, NewLen);
    return Leaf->Set(*this, Value) ? 0 : EINVAL;
  }
  // The read runs before the buffer check, so mesh.now and
  // heap.flush_dirty do their work even when the buffer is rejected.
  const uint64_t Value = Leaf->Get(*this);
  if (OldP == nullptr || OldLenP == nullptr || *OldLenP < sizeof(Value))
    return EINVAL;
  memcpy(OldP, &Value, sizeof(Value));
  *OldLenP = sizeof(Value);
  return 0;
}

} // namespace mesh
