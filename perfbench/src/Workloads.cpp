//===- Workloads.cpp - The benchmark's three closed-loop workloads ------===//
///
/// Every workload is one closed-loop client (a handoff adds one consumer
/// thread) over a fresh mesh::Runtime. The benchmark's own memory (key
/// tables, sample arrays, span logs) comes from the system allocator, so
/// the heap under test holds only what the client stores in it.
///
/// Clocks: setup and throughput are timed on the CPU clocks of the
/// client threads (the client, plus the consumer of a handoff), which
/// do all of the measured work: on a shared VM a wall clock also counts
/// time they spent descheduled. Latencies use CLOCK_MONOTONIC.
///
/// A run's gated speed figures are ratios to the system allocator (libc
/// malloc) on the same inputs: each runtime episode is paired with one
/// over libc, run right before or after it, because the host's speed
/// drifts by 20-30% over minutes and a ratio of two measurements taken
/// seconds apart cancels that drift.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Stats.h"
#include "Trace.h"

#include "baseline/HeapBackend.h"
#include "core/Runtime.h"
#include "support/Rng.h"
#include "support/SpinLock.h"
#include "workloads/KVStore.h"
#include "workloads/Zipfian.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <malloc.h>
#include <memory>
#include <numeric>
#include <sched.h>
#include <string_view>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

using mesh::KVStore;
using mesh::MeshOptions;
using mesh::Rng;
using mesh::Runtime;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// One request in kLatEvery is timed in an untraced run; one in
/// kSpanEvery gets a span tree in a traced run.
constexpr uint64_t kLatEvery = 32;
constexpr uint64_t kSpanEvery = 1024;
/// Heap readings are taken every kHeapEvery requests.
constexpr uint64_t kHeapEvery = 16384;
/// kv-zipf and xthread-handoff run in episodes of about this much
/// window each, every one on a fresh runtime, so a run's medians span
/// several heap layouts (and CPUs, see Placement).
constexpr double kEpisodeSeconds = 2.5;
constexpr size_t kSpanCapacity = 1 << 20;
constexpr int kMaxCompactPasses = 256;

double wallS() { return static_cast<double>(nowNs()) * 1e-9; }

/// CPU placement. An episode runs its client on one CPU, so the
/// scheduler does not migrate it away from its warm caches mid-window,
/// and episode e uses the (e mod N)th of the N CPUs the process may use:
/// on a shared host the CPUs' speeds differ for longer than a run lasts,
/// so rotating makes a run's medians average over them. The handoff's
/// producer and consumer share that CPU for the window, and every other
/// thread is kept off it: the background mesher inherits the mask of
/// the thread that creates its runtime.
struct Placement {
  cpu_set_t Client; ///< Just the episode's CPU.
  cpu_set_t Others; ///< Every other allowed CPU (empty on one CPU).
};

const cpu_set_t &allowedCpus() {
  static const cpu_set_t All = [] {
    cpu_set_t Mask;
    CPU_ZERO(&Mask);
    sched_getaffinity(0, sizeof(Mask), &Mask);
    return Mask;
  }();
  return All;
}

Placement placementFor(uint64_t Episode) {
  const cpu_set_t &All = allowedCpus();
  const int N = std::max(1, CPU_COUNT(&All));
  Placement P;
  CPU_ZERO(&P.Client);
  P.Others = All;
  for (int Cpu = 0, Seen = 0; Cpu < CPU_SETSIZE; ++Cpu) {
    if (CPU_ISSET(Cpu, &All) && Seen++ == static_cast<int>(Episode % N)) {
      CPU_SET(Cpu, &P.Client);
      CPU_CLR(Cpu, &P.Others);
      break;
    }
  }
  return P;
}

/// Restricts the calling thread to \p Mask; an empty mask is ignored.
void setAffinity(const cpu_set_t &Mask) {
  if (CPU_COUNT(&Mask) > 0)
    sched_setaffinity(0, sizeof(Mask), &Mask);
}

double threadCpuS() {
  struct timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}

uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// A fixed, seeded subset of request indices: a hash of (salt, index)
/// decides, so the producer and consumer of a handoff agree on which
/// messages are sampled without sharing state.
class SampleGate {
public:
  SampleGate(uint64_t Salt, uint64_t Every)
      : Salt(mix64(Salt)), Every(Every) {}
  bool operator()(uint64_t Index) const {
    return mix64(Index ^ Salt) % Every == 0;
  }

private:
  uint64_t Salt;
  uint64_t Every;
};

/// Leaves the benchmark reads but the runtime does not answer; each is
/// reported once and reads as 0.
std::vector<std::string> &missingLeaves() {
  static std::vector<std::string> Missing;
  return Missing;
}

void noteMissing(const char *Name) {
  auto &Missing = missingLeaves();
  if (std::find(Missing.begin(), Missing.end(), Name) == Missing.end())
    Missing.emplace_back(Name);
}

uint64_t ctlU64(Runtime &Rt, const char *Name) {
  uint64_t V = 0;
  size_t Len = sizeof(V);
  if (Rt.mallctl(Name, &V, &Len, nullptr, 0) != 0) {
    noteMissing(Name);
    return 0;
  }
  return V;
}

void ctlSetBool(Runtime &Rt, const char *Name, bool Value) {
  if (Rt.mallctl(Name, nullptr, nullptr, &Value, sizeof(Value)) != 0)
    noteMissing(Name);
}

/// The heap as the kernel charges it: the arena memfd's allocated
/// bytes (an fstat). Also counts readings above the runtime's own
/// committed-bytes figure, which would mean one of the two is wrong.
struct HeapReader {
  Runtime *Rt; ///< Null in a libc episode, which reads no heap.
  uint64_t *OverCommitted;
  uint64_t operator()() const {
    if (Rt == nullptr)
      return 0;
    const uint64_t File = ctlU64(*Rt, "stats.kernel_file_bytes");
    if (File > Rt->committedBytes())
      ++*OverCommitted;
    return File;
  }
};

enum HistIdx {
  kHPass,
  kHScan,
  kHRemap,
  kHRelease,
  kHEpoch,
  kHSpan,
  kHPunch,
  kHRemapSys,
  kNumHists
};
constexpr const char *kHistLeaves[kNumHists] = {
    "telemetry.hist.mesh_pass",     "telemetry.hist.mesh_scan",
    "telemetry.hist.mesh_remap",    "telemetry.hist.mesh_release",
    "telemetry.hist.epoch_sync",    "telemetry.hist.span_acquire",
    "telemetry.hist.punch_syscall", "telemetry.hist.remap_syscall"};
constexpr size_t kBuckets = 64;

/// Counters the library already exposes, read through mallctl (and the
/// probe count through GlobalHeap::stats()), plus this process's
/// rusage. Deltas across a window attribute its work to layers.
struct Counters {
  enum Field {
    kPassesFg,
    kPassesBg,
    kPairs,
    kPagesMeshed,
    kBytesCopied,
    kProbes,
    kBgWakeups,
    kBgPokePasses,
    kBgPressurePasses,
    kOom,
    kRollbacks,
    kPunchFallbacks,
    kMinFlt,
    kNivcsw,
    kNumFields
  };
  uint64_t F[kNumFields] = {};
  uint64_t Hist[kNumHists][kBuckets] = {};

  static Counters read(Runtime &Rt) {
    // In Field order up to kMinFlt; kProbes has no leaf.
    static const char *const Leaves[] = {
        "stats.mesh_passes_foreground", "stats.mesh_passes_background",
        "stats.mesh_count",             "stats.pages_meshed",
        "stats.bytes_copied",           nullptr,
        "background.wakeups",           "background.poke_passes",
        "background.pressure_passes",   "faults.oom_returns",
        "faults.mesh_rollbacks",        "faults.punch_fallbacks"};
    Counters C;
    for (int I = 0; I < kMinFlt; ++I)
      C.F[I] = Leaves[I] != nullptr ? ctlU64(Rt, Leaves[I]) : 0;
    C.F[kProbes] = Rt.global().stats().MeshProbeCount.load(
        std::memory_order_relaxed);
    struct rusage Ru;
    getrusage(RUSAGE_SELF, &Ru);
    C.F[kMinFlt] = static_cast<uint64_t>(Ru.ru_minflt);
    C.F[kNivcsw] = static_cast<uint64_t>(Ru.ru_nivcsw);
    for (int H = 0; H < kNumHists; ++H) {
      size_t Len = sizeof(C.Hist[H]);
      if (Rt.mallctl(kHistLeaves[H], C.Hist[H], &Len, nullptr, 0) != 0)
        noteMissing(kHistLeaves[H]);
    }
    return C;
  }

  /// Adds (After - Before) into this.
  void accumulate(const Counters &After, const Counters &Before) {
    for (int I = 0; I < kNumFields; ++I)
      F[I] += After.F[I] - Before.F[I];
    for (int H = 0; H < kNumHists; ++H)
      for (size_t B = 0; B < kBuckets; ++B)
        Hist[H][B] += After.Hist[H][B] - Before.Hist[H][B];
  }

  uint64_t count(HistIdx H) const { return histCount(Hist[H], kBuckets); }
  double p50(HistIdx H) const { return histQuantile(Hist[H], kBuckets, 0.5); }
};

/// KVStore's view of the runtime: forwards to Runtime::malloc/free (to
/// libc malloc/free when given no runtime: the paired baseline), counts
/// calls and null returns and, while armed for a sampled request of a
/// traced run, records a child span around each call.
class RuntimeBackend final : public mesh::HeapBackend {
public:
  explicit RuntimeBackend(Runtime *Rt) : Rt(Rt) {}

  void *malloc(size_t Bytes) override {
    ++Calls;
    void *P;
    if (Log == nullptr) {
      P = Rt != nullptr ? Rt->malloc(Bytes) : std::malloc(Bytes);
    } else {
      const uint32_t S = Log->open(SpanKind::kMalloc, Request, Parent);
      P = Rt->malloc(Bytes);
      Log->close(S);
    }
    NullMallocs += P == nullptr;
    return P;
  }
  void free(void *Ptr) override {
    ++Calls;
    if (Log == nullptr) {
      if (Rt != nullptr)
        Rt->free(Ptr);
      else
        std::free(Ptr);
      return;
    }
    const uint32_t S = Log->open(SpanKind::kFree, Request, Parent);
    Rt->free(Ptr);
    Log->close(S);
  }
  size_t usableSize(const void *Ptr) const override {
    return Rt != nullptr ? Rt->usableSize(Ptr)
                         : malloc_usable_size(const_cast<void *>(Ptr));
  }
  size_t committedBytes() const override {
    return Rt != nullptr ? Rt->committedBytes() : 0;
  }
  size_t peakCommittedBytes() const override { return 0; }
  const char *name() const override {
    return Rt != nullptr ? "mesh::Runtime" : "libc";
  }

  void arm(SpanLog *L, uint64_t Req, uint32_t ParentSpan) {
    Log = L;
    Request = Req;
    Parent = ParentSpan;
  }
  void disarm() { Log = nullptr; }

  uint64_t Calls = 0;
  uint64_t NullMallocs = 0;

private:
  Runtime *Rt;
  SpanLog *Log = nullptr;
  uint64_t Request = kNoRequest;
  uint32_t Parent = kNoParent;
};

/// One measured window (plus its compaction) and what it observed.
struct Episode {
  double SetupS = 0; ///< Client thread CPU time.
  uint64_t Ops = 0; ///< Requests completed in the window.
  double WallS = 0;
  double CpuS = 0; ///< Client threads' CPU time in the window.
  std::vector<uint64_t> LatNs; ///< Sampled request latencies.
  /// Requests one latency sample covers: 1, or a handoff's burst.
  uint32_t MsgsPerSample = 1;
  double HeapMean = 0, HeapPeak = 0, HeapFinal = 0;
  uint64_t HeapSamples = 0;
  uint64_t OverCommitted = 0;
  std::vector<uint64_t> PauseNs; ///< Each meshNow call of the compaction.
  Counters Delta;                ///< Window + compaction.
  uint64_t Evictions = 0, AllocCalls = 0;
  double MaxPassNs = 0; ///< Longest pass of any origin (stats leaf).
  double RssFinal = 0, DirtyFinal = 0;
  // Failure accounting.
  uint64_t Attempted = 0, NullMallocs = 0, FailedSets = 0, BadReads = 0,
           Lost = 0;

  double compactS() const {
    return std::accumulate(PauseNs.begin(), PauseNs.end(), 0.0) * 1e-9;
  }
};

/// Runs one client request. In an untraced run a seeded subset is
/// timed; in a traced run a sparser subset gets a request span, with the
/// backend recording child spans for the runtime calls it makes.
class Client {
public:
  Client(uint64_t Seed, SpanLog *Log, RuntimeBackend *Backend,
         std::vector<uint64_t> &Lat)
      : LatGate(Seed, kLatEvery), SpanGate(Seed ^ 0x5ba5, kSpanEvery),
        Log(Log), Backend(Backend), Lat(Lat) {}

  template <typename Fn> auto operator()(uint64_t Id, Fn &&Do) {
    if (Log != nullptr) {
      if (!SpanGate(Id))
        return Do();
      const uint32_t S = Log->open(SpanKind::kRequest, Id, kNoParent);
      Backend->arm(Log, Id, S);
      auto R = Do();
      Backend->disarm();
      Log->close(S);
      return R;
    }
    if (!LatGate(Id))
      return Do();
    const uint64_t T0 = nowNs();
    auto R = Do();
    Lat.push_back(nowNs() - T0);
    return R;
  }

private:
  SampleGate LatGate, SpanGate;
  SpanLog *Log;
  RuntimeBackend *Backend;
  std::vector<uint64_t> &Lat;
};

/// Idle compaction: Runtime::meshNow until a pass releases less than
/// the runtime's own effectiveness threshold (MeshEffectiveBytes).
void compact(Runtime &Rt, Episode &E, SpanLog *Log) {
  const size_t Threshold = Rt.global().options().MeshEffectiveBytes;
  for (int Pass = 0; Pass < kMaxCompactPasses; ++Pass) {
    const uint32_t S =
        Log != nullptr ? Log->open(SpanKind::kMeshNow, kNoRequest, kNoParent)
                       : kNoParent;
    const uint64_t T0 = nowNs();
    const size_t Released = Rt.meshNow();
    E.PauseNs.push_back(nowNs() - T0);
    if (Log != nullptr)
      Log->close(S);
    if (Released < Threshold)
      break;
  }
}

/// Turns the library's telemetry (histograms of its slow paths) on for
/// a traced window; a no-op for an untraced one.
class TelemetryScope {
public:
  TelemetryScope(Runtime *Rt, bool On) : Rt(Rt), On(On) {
    if (On)
      ctlSetBool(*Rt, "telemetry.enabled", true);
  }
  ~TelemetryScope() {
    if (On)
      ctlSetBool(*Rt, "telemetry.enabled", false);
  }
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  Runtime *Rt;
  bool On;
};

/// Readings taken once the window and its compaction are over.
void finish(Runtime &Rt, Episode &E, const Counters &Before) {
  E.HeapFinal = static_cast<double>(ctlU64(Rt, "stats.kernel_file_bytes"));
  E.Delta.accumulate(Counters::read(Rt), Before);
  E.MaxPassNs = static_cast<double>(ctlU64(Rt, "stats.max_pause_ns"));
  E.RssFinal = static_cast<double>(ctlU64(Rt, "pressure.rss_bytes"));
  E.DirtyFinal = static_cast<double>(ctlU64(Rt, "stats.dirty_bytes"));
}

template <typename Sampler> void takeHeap(Episode &E, const Sampler &S) {
  E.HeapMean = S.mean();
  E.HeapPeak = static_cast<double>(S.peak());
  E.HeapSamples = S.readings().size();
}

bool allBytes(std::string_view V, uint8_t Byte) {
  uint8_t Acc = 0;
  for (char C : V)
    Acc |= static_cast<uint8_t>(C) ^ Byte;
  return Acc == 0;
}

constexpr size_t kKeyLen = 20;

/// "key:<16 hex digits>", the key shape of the paper's Redis benchmark.
void formatKey(uint64_t Bits, char *Out) {
  static const char Hex[] = "0123456789abcdef";
  memcpy(Out, "key:", 4);
  for (int I = 0; I < 16; ++I) {
    Out[4 + I] = Hex[Bits & 0xF];
    Bits >>= 4;
  }
}

/// Per-key fill byte; never 0, so a zeroed page cannot pass for a value.
uint8_t fillFor(uint64_t Bits) { return static_cast<uint8_t>(Bits >> 56) | 1; }

//===----------------------------------------------------------------------===//
// redis-lru: the paper's Section 6.2.2 workload.
//===----------------------------------------------------------------------===//

struct RedisSizes {
  size_t Budget;
  size_t Phase1, Phase2;
  uint32_t Len1, Len2;
};

RedisSizes redisSizes(bool Smoke) {
  if (Smoke)
    return {2000000, 14000, 3400, 240, 492};
  return {100000000, 700000, 170000, 240, 492};
}

/// One pass of the script: set up (construct + fill to the first
/// eviction), the remaining sets as the measured window, then idle
/// compaction and a read-back of every key still cached. With \p Libc
/// the store runs over libc malloc instead, with no compaction.
Episode redisEpisode(const RunConfig &C, const MeshOptions &Opts,
                     uint64_t Seed, SpanLog *Log, bool Libc = false) {
  const RedisSizes Z = redisSizes(C.Smoke);
  Episode E;
  std::vector<char> Value(Z.Len2);
  char Key[kKeyLen];
  Rng Keys(Seed);
  auto Prepare = [&](uint32_t Len) {
    const uint64_t Bits = Keys.next();
    formatKey(Bits, Key);
    memset(Value.data(), fillFor(Bits), Len);
  };

  const double C0 = threadCpuS();
  std::unique_ptr<Runtime> Rt;
  if (!Libc)
    Rt = std::make_unique<Runtime>(Opts);
  RuntimeBackend Backend(Rt.get());
  auto Store = std::make_unique<KVStore>(Backend, Z.Budget);
  size_t I = 0;
  for (; I < Z.Phase1 && Store->payloadBytes() + kKeyLen + Z.Len1 <= Z.Budget;
       ++I) {
    Prepare(Z.Len1);
    E.FailedSets += !Store->set({Key, kKeyLen}, {Value.data(), Z.Len1});
  }
  E.SetupS = threadCpuS() - C0;

  const size_t Total = Z.Phase1 + Z.Phase2;
  E.LatNs.reserve((Total - I) / kLatEvery * 2);
  HeapReader Reader{Rt.get(), &E.OverCommitted};
  CadenceSampler<HeapReader> Heap(kHeapEvery, Reader);
  Heap.reserve((Total - I) / kHeapEvery + 2);
  Client Request(Seed, Log, &Backend, E.LatNs);
  TelemetryScope Telemetry(Rt.get(), Log != nullptr);
  const Counters Before = Rt ? Counters::read(*Rt) : Counters();
  const uint64_t Calls0 = Backend.Calls;
  const double W1 = wallS(), C1 = threadCpuS();
  for (; I < Total; ++I) {
    const uint32_t Len = I < Z.Phase1 ? Z.Len1 : Z.Len2;
    Prepare(Len);
    Heap.onOp();
    E.FailedSets += !Request((Seed << 32) ^ I, [&] {
      return Store->set({Key, kKeyLen}, {Value.data(), Len});
    });
  }
  E.WallS = wallS() - W1;
  E.CpuS = threadCpuS() - C1;
  E.Ops = Heap.ops();
  takeHeap(E, Heap);
  E.AllocCalls = Backend.Calls - Calls0;
  E.Evictions = Store->evictionCount();

  if (Rt) {
    compact(*Rt, E, Log);
    finish(*Rt, E, Before);
  }

  // Read back every key; the ones still cached must hold their value.
  Rng Check(Seed);
  size_t Present = 0;
  for (size_t J = 0; J < Total; ++J) {
    const uint64_t Bits = Check.next();
    formatKey(Bits, Key);
    const std::string_view Got = Store->get({Key, kKeyLen});
    if (Got.empty())
      continue;
    ++Present;
    const uint32_t Len = J < Z.Phase1 ? Z.Len1 : Z.Len2;
    E.BadReads += Got.size() != Len || !allBytes(Got, fillFor(Bits));
  }
  E.BadReads += Present != Store->entryCount();
  E.Attempted = 2 * Total;
  E.NullMallocs = Backend.NullMallocs;
  return E;
}

//===----------------------------------------------------------------------===//
// kv-zipf: a steady-state cache under skewed get/set/del traffic.
//===----------------------------------------------------------------------===//

constexpr uint32_t kZipfValueLens[] = {48, 96, 192, 384};
constexpr unsigned kGetPct = 75, kSetPct = 20; // the rest are deletes

struct ZipfState {
  uint64_t Keys = 0;
  std::vector<uint64_t> Bits;  ///< Per key: the bits its name is made of.
  std::vector<char> Names;     ///< Per key: its kKeyLen-byte name.
  std::vector<uint8_t> Shadow; ///< Per key: 0 absent, else length index+1.
  std::unique_ptr<Runtime> Rt;
  std::unique_ptr<RuntimeBackend> Backend;
  std::unique_ptr<KVStore> Store;

  std::string_view name(uint64_t K) const {
    return {Names.data() + K * kKeyLen, kKeyLen};
  }
};

/// Constructs the runtime (none with \p Libc) and store and sets every
/// key once. The runtime, and so its mesher thread, is created off the
/// client's CPU.
void zipfSetup(ZipfState &S, const MeshOptions &Opts, uint64_t Seed,
               const Placement &Where, bool Libc, Episode &E) {
  S.Store.reset();
  S.Backend.reset();
  S.Rt.reset();
  Rng Random(Seed ^ 0x2e7f);
  std::vector<char> Value(kZipfValueLens[3]);
  const double C0 = threadCpuS();
  if (!Libc) {
    setAffinity(Where.Others);
    S.Rt = std::make_unique<Runtime>(Opts);
  }
  setAffinity(Where.Client);
  S.Backend = std::make_unique<RuntimeBackend>(S.Rt.get());
  S.Store = std::make_unique<KVStore>(*S.Backend, 0);
  for (uint64_t K = 0; K < S.Keys; ++K) {
    const uint32_t Cls = Random.inRange(0, 3);
    memset(Value.data(), fillFor(S.Bits[K]), kZipfValueLens[Cls]);
    const bool Ok =
        S.Store->set(S.name(K), {Value.data(), kZipfValueLens[Cls]});
    E.FailedSets += !Ok;
    S.Shadow[K] = Ok ? static_cast<uint8_t>(Cls + 1) : 0;
  }
  E.SetupS = threadCpuS() - C0;
  E.Attempted += S.Keys;
}

uint64_t gcd(uint64_t A, uint64_t B) { return B == 0 ? A : gcd(B, A % B); }

/// Checks one get against the shadow; returns the number of mismatches.
uint64_t checkGet(const ZipfState &S, uint64_t K, std::string_view Got) {
  if (S.Shadow[K] == 0)
    return Got.empty() ? 0 : 1;
  return Got.size() != kZipfValueLens[S.Shadow[K] - 1] ||
         !allBytes(Got, fillFor(S.Bits[K]));
}

/// The closed loop: Zipfian (theta 0.99) keys, 75% get / 20% set / 5%
/// del, every set redrawing the value length across four size classes.
void zipfWindow(ZipfState &S, uint64_t Seed, double Seconds, SpanLog *Log,
                Episode &E) {
  Runtime *Rt = S.Rt.get(); // null in a libc episode
  const mesh::ZipfianGenerator Zipf(S.Keys, 0.99);
  // Scatter the hot keys through the key table (and so through the
  // spans the prefill filled): rank r maps to key r * Stride mod Keys.
  uint64_t Stride = 7919;
  while (gcd(Stride, S.Keys) != 1)
    Stride += 2;
  Rng Random(Seed ^ 0x21bf);
  std::vector<char> Value(kZipfValueLens[3]);
  E.LatNs.reserve(static_cast<size_t>(Seconds * 4e6 / kLatEvery));
  HeapReader Reader{Rt, &E.OverCommitted};
  CadenceSampler<HeapReader> Heap(kHeapEvery, Reader);
  Heap.reserve(static_cast<size_t>(Seconds * 4e6 / kHeapEvery) + 2);
  Client Request(Seed, Log, S.Backend.get(), E.LatNs);
  TelemetryScope Telemetry(Rt, Log != nullptr);
  const Counters Before = Rt ? Counters::read(*Rt) : Counters();
  const uint64_t Calls0 = S.Backend->Calls;
  const double W1 = wallS(), C1 = threadCpuS();
  const double Deadline = W1 + Seconds;
  for (uint64_t Op = 0;; ++Op) {
    if ((Op & 1023) == 0 && wallS() >= Deadline)
      break;
    const uint64_t K = Zipf.next(Random) * Stride % S.Keys;
    const unsigned Kind = Random.inRange(0, 99);
    const std::string_view KeyView = S.name(K);
    const uint64_t Id = (Seed << 32) ^ Op;
    Heap.onOp();
    if (Kind < kGetPct) {
      const std::string_view Got =
          Request(Id, [&] { return S.Store->get(KeyView); });
      E.BadReads += checkGet(S, K, Got);
    } else if (Kind < kGetPct + kSetPct) {
      const uint32_t Cls = Random.inRange(0, 3);
      memset(Value.data(), fillFor(S.Bits[K]), kZipfValueLens[Cls]);
      const bool Ok = Request(Id, [&] {
        return S.Store->set(KeyView, {Value.data(), kZipfValueLens[Cls]});
      });
      E.FailedSets += !Ok;
      if (Ok)
        S.Shadow[K] = static_cast<uint8_t>(Cls + 1);
    } else {
      const bool Existed = Request(Id, [&] { return S.Store->del(KeyView); });
      E.BadReads += Existed != (S.Shadow[K] != 0);
      S.Shadow[K] = 0;
    }
  }
  E.WallS = wallS() - W1;
  E.CpuS = threadCpuS() - C1;
  E.Ops = Heap.ops();
  takeHeap(E, Heap);
  E.AllocCalls = S.Backend->Calls - Calls0;
  if (Rt) {
    compact(*Rt, E, Log);
    finish(*Rt, E, Before);
  }
  // Read back every key against the shadow.
  for (uint64_t K = 0; K < S.Keys; ++K)
    E.BadReads += checkGet(S, K, S.Store->get(S.name(K)));
  E.Attempted += E.Ops + S.Keys;
  E.NullMallocs = S.Backend->NullMallocs;
}

//===----------------------------------------------------------------------===//
// xthread-handoff: every free is remote.
//===----------------------------------------------------------------------===//

constexpr uint32_t kMsgLens[] = {24, 56, 120, 248};
constexpr size_t kRingSlots = 1024;
constexpr size_t kRingBatch = 32;
/// Messages produced per burst; a latency sample times one burst.
constexpr uint32_t kBurst = 16;
constexpr int kSpinBudget = 64;

/// Waits with a bounded pause-spin, then yields, as support/SpinLock.h
/// does: a descheduled peer must not hang the run.
class Backoff {
public:
  void wait() {
    if (++Spins < kSpinBudget) {
      mesh::cpuRelax();
    } else {
      sched_yield();
      Spins = 0;
    }
  }

private:
  int Spins = 0;
};

/// Bounded single-producer single-consumer ring of message pointers.
/// Both sides publish their index once per kRingBatch messages and keep
/// a cached copy of the other side's, so the ring's own cache-line
/// traffic stays small next to the allocator work it carries.
class Ring {
public:
  void push(void *P) {
    if (Tail - HeadSeen == kRingSlots) {
      flush();
      Backoff B;
      while (Tail - (HeadSeen = Head.load(std::memory_order_acquire)) ==
             kRingSlots)
        B.wait();
    }
    Slots[Tail % kRingSlots] = P;
    if (++Tail % kRingBatch == 0)
      flush();
  }
  /// Publishes every pushed message.
  void flush() { TailPub.store(Tail, std::memory_order_release); }

  void *pop() {
    if (Next == TailSeen) {
      Backoff B;
      while ((TailSeen = TailPub.load(std::memory_order_acquire)) == Next)
        B.wait();
    }
    void *P = Slots[Next++ % kRingSlots];
    if (Next % kRingBatch == 0)
      Head.store(Next, std::memory_order_release);
    return P;
  }

private:
  // Producer side.
  alignas(64) uint64_t Tail = 0;
  uint64_t HeadSeen = 0;
  alignas(64) std::atomic<uint64_t> TailPub{0};
  // Consumer side.
  alignas(64) uint64_t Next = 0;
  uint64_t TailSeen = 0;
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) void *Slots[kRingSlots] = {};
};

/// A message: 8-byte sequence number, 4-byte length, and a check byte
/// derived from the sequence number in its last byte.
struct MsgHeader {
  uint64_t Seq;
  uint32_t Len;
};
uint8_t checkByte(uint64_t Seq) { return fillFor(mix64(Seq)); }

struct HandoffState {
  struct Kept {
    void *Ptr;
    uint32_t Len;
    uint8_t Fill;
  };
  size_t Population = 0;
  std::unique_ptr<Runtime> Rt;
  std::vector<Kept> Retained;
};

/// Constructs the runtime and leaves a half-freed population behind: a
/// seeded half of Population small objects is freed, the rest retained.
void handoffSetup(HandoffState &S, const MeshOptions &Opts, uint64_t Seed,
                  Episode &E) {
  S.Retained.clear();
  S.Rt.reset();
  Rng Random(Seed ^ 0x9a7d);
  std::vector<void *> All(S.Population);
  std::vector<uint32_t> Lens(S.Population);
  const double C0 = threadCpuS();
  S.Rt = std::make_unique<Runtime>(Opts);
  Runtime &Rt = *S.Rt;
  for (size_t I = 0; I < S.Population; ++I) {
    Lens[I] = kMsgLens[Random.inRange(0, 3)];
    All[I] = Rt.malloc(Lens[I]);
    if (All[I] == nullptr) {
      ++E.NullMallocs;
      continue;
    }
    memset(All[I], fillFor(mix64(I)), Lens[I]);
  }
  for (size_t I = 0; I < S.Population; ++I) {
    if (All[I] == nullptr)
      continue;
    if (Random.next() & 1)
      Rt.free(All[I]);
    else
      S.Retained.push_back({All[I], Lens[I], fillFor(mix64(I))});
  }
  E.SetupS = threadCpuS() - C0;
  E.Attempted += S.Population;
}

/// The closed loop: the client thread produces messages into a bounded
/// ring for Seconds; a consumer thread verifies and frees each one.
void handoffWindow(HandoffState &S, uint64_t Seed, double Seconds,
                   const Placement &Where, SpanLog *ProducerLog,
                   SpanLog *ConsumerLog, Episode &E) {
  Runtime &Rt = *S.Rt;
  Ring Queue;
  std::atomic<uint64_t> Consumed{0}, Corrupt{0};
  const SampleGate SpanGate(Seed ^ 0x5ba5, kSpanEvery);
  const uint64_t IdBase = Seed << 32; // request ids, unique per episode
  // Producer and consumer share one CPU for the window, so the ring
  // hands off in bursts of up to kRingSlots and every free still takes
  // the remote path; on two CPUs the run-to-run spread followed where
  // the host placed the two vCPUs (about +-20%).
  setAffinity(Where.Client);
  std::atomic<double> ConsumerCpuS{0};
  std::thread Consumer([&] {
    setAffinity(Where.Client);
    const double Cpu0 = threadCpuS();
    uint64_t Expect = 0, Bad = 0, Count = 0;
    for (;;) {
      void *P = Queue.pop();
      if (P == nullptr)
        break;
      MsgHeader H;
      memcpy(&H, P, sizeof(H));
      const bool Traced = ConsumerLog != nullptr && SpanGate(H.Seq);
      const uint32_t Span =
          Traced ? ConsumerLog->open(SpanKind::kConsume, IdBase + H.Seq,
                                     kNoParent)
                 : kNoParent;
      Bad += H.Seq < Expect || H.Len < sizeof(H) || H.Len > kMsgLens[3] ||
             static_cast<uint8_t *>(P)[H.Len - 1] != checkByte(H.Seq);
      Expect = H.Seq + 1;
      if (Traced) {
        const uint32_t F =
            ConsumerLog->open(SpanKind::kFree, IdBase + H.Seq, Span);
        Rt.free(P);
        ConsumerLog->close(F);
        ConsumerLog->close(Span);
      } else {
        Rt.free(P);
      }
      ++Count;
    }
    Consumed.store(Count, std::memory_order_relaxed);
    Corrupt.store(Bad, std::memory_order_relaxed);
    ConsumerCpuS.store(threadCpuS() - Cpu0, std::memory_order_relaxed);
  });

  Rng Random(Seed ^ 0x1e75);
  const SampleGate LatGate(Seed, kLatEvery);
  E.LatNs.reserve(static_cast<size_t>(Seconds * 4e6 / kLatEvery));
  HeapReader Reader{&Rt, &E.OverCommitted};
  CadenceSampler<HeapReader> Heap(kHeapEvery, Reader);
  Heap.reserve(static_cast<size_t>(Seconds * 8e6 / kHeapEvery) + 2);
  TelemetryScope Telemetry(&Rt, ProducerLog != nullptr);
  const Counters Before = Counters::read(Rt);
  const double W1 = wallS(), C1 = threadCpuS();
  const double Deadline = W1 + Seconds;
  uint64_t Produced = 0, Null = 0;
  uint32_t Lens[kBurst];
  void *Msgs[kBurst];
  // Messages are produced in bursts of kBurst and then pushed, so a
  // timed burst leaves out waits for ring space.
  for (uint64_t First = 0;; First += kBurst) {
    if (First % 1024 == 0 && wallS() >= Deadline)
      break;
    for (uint32_t I = 0; I < kBurst; ++I) {
      Lens[I] = kMsgLens[Random.inRange(0, 3)];
      Heap.onOp();
    }
    const bool Timed = ProducerLog == nullptr && LatGate(First);
    const uint64_t T0 = Timed ? nowNs() : 0;
    for (uint32_t I = 0; I < kBurst; ++I) {
      const uint64_t Seq = First + I;
      const bool Traced = ProducerLog != nullptr && SpanGate(Seq);
      uint32_t Span = kNoParent;
      void *P;
      if (Traced) {
        Span = ProducerLog->open(SpanKind::kRequest, IdBase + Seq, kNoParent);
        const uint32_t M =
            ProducerLog->open(SpanKind::kMalloc, IdBase + Seq, Span);
        P = Rt.malloc(Lens[I]);
        ProducerLog->close(M);
      } else {
        P = Rt.malloc(Lens[I]);
      }
      if (P != nullptr) {
        const MsgHeader H{Seq, Lens[I]};
        memcpy(P, &H, sizeof(H));
        static_cast<uint8_t *>(P)[Lens[I] - 1] = checkByte(Seq);
      }
      if (Traced)
        ProducerLog->close(Span);
      Msgs[I] = P;
    }
    if (Timed)
      E.LatNs.push_back(nowNs() - T0);
    for (uint32_t I = 0; I < kBurst; ++I) {
      if (Msgs[I] == nullptr) {
        ++Null;
        continue;
      }
      Queue.push(Msgs[I]);
      ++Produced;
    }
  }
  Queue.push(nullptr);
  Queue.flush();
  Consumer.join();
  setAffinity(Where.Others);
  E.WallS = wallS() - W1;
  E.CpuS = threadCpuS() - C1 + ConsumerCpuS.load();
  E.Ops = Consumed.load();
  E.BadReads += Corrupt.load();
  E.Lost += Produced - E.Ops;
  E.NullMallocs += Null;
  E.AllocCalls = Produced + Null + E.Ops;
  E.MsgsPerSample = kBurst;
  takeHeap(E, Heap);
  compact(Rt, E, ProducerLog);
  finish(Rt, E, Before);
  // The retained population must have survived every mesh pass intact.
  for (const HandoffState::Kept &K : S.Retained)
    E.BadReads +=
        !allBytes({static_cast<const char *>(K.Ptr), K.Len}, K.Fill);
  E.Attempted += Produced + Null + S.Retained.size();
}

//===----------------------------------------------------------------------===//
// Runs, aggregation and reporting.
//===----------------------------------------------------------------------===//

MeshOptions optionsFor(const std::string &W) {
  MeshOptions Opts; // MeshOptions defaults: what an instance heap gets.
  // The arena is a virtual reservation; the largest heap here is about
  // 0.2 GiB. A 16 GiB reservation (the default) aborts the run in a
  // process whose address space is limited (ulimit -v), so reserve 1 GiB.
  Opts.ArenaBytes = size_t{1} << 30;
  // Background meshing on, as the LD_PRELOAD runtime ships it; redis-lru
  // keeps it off so that every pass is a pause its client waits on.
  if (W != "redis-lru")
    Opts.BackgroundMeshing = true;
  return Opts;
}

/// Runs the workload for about \p Seconds of measured window, untraced
/// or (\p Traced) with span logs appended to \p Logs. Given \p Libc
/// (redis-lru and kv-zipf), every episode is paired with one over libc
/// malloc on the same seed and CPU, appended there; the pair's order
/// alternates, and the two share the time.
std::vector<Episode> runWindows(const RunConfig &C, double Seconds,
                                bool Traced,
                                std::vector<std::unique_ptr<SpanLog>> &Logs,
                                const MeshOptions &Opts,
                                std::vector<Episode> *Libc = nullptr) {
  std::vector<Episode> Out;
  auto NewLog = [&]() -> SpanLog * {
    if (!Traced)
      return nullptr;
    Logs.push_back(std::make_unique<SpanLog>(kSpanCapacity));
    return Logs.back().get();
  };
  if (C.Workload == "redis-lru") {
    SpanLog *Log = NewLog();
    const double Start = wallS();
    for (uint64_t Ep = 0; Ep == 0 || wallS() - Start < Seconds; ++Ep) {
      setAffinity(placementFor(Ep).Client);
      const uint64_t Seed = C.Seed * 1000 + Ep;
      if (Libc != nullptr && Ep % 2 == 1)
        Libc->push_back(redisEpisode(C, Opts, Seed, nullptr, true));
      Out.push_back(redisEpisode(C, Opts, Seed, Log));
      if (Libc != nullptr && Ep % 2 == 0)
        Libc->push_back(redisEpisode(C, Opts, Seed, nullptr, true));
    }
    return Out;
  }
  // The other two split the run into episodes of about
  // kEpisodeSeconds of window each, every one on a fresh runtime.
  const int PerEpisode = Libc != nullptr ? 2 : 1;
  const int Episodes = std::max(
      1, static_cast<int>(std::lround(Seconds / kEpisodeSeconds / PerEpisode)));
  const double Window = Seconds / Episodes / PerEpisode;
  SpanLog *Log = NewLog();
  SpanLog *ConsumerLog = C.Workload == "kv-zipf" ? nullptr : NewLog();
  ZipfState Zipf;
  HandoffState Handoff;
  if (C.Workload == "kv-zipf") {
    Zipf.Keys = C.Smoke ? 5000 : 200000;
    Zipf.Shadow.assign(Zipf.Keys, 0);
    const uint64_t Salt = mix64(C.Seed);
    Zipf.Names.resize(Zipf.Keys * kKeyLen);
    for (uint64_t K = 0; K < Zipf.Keys; ++K) {
      Zipf.Bits.push_back(mix64(K + Salt));
      formatKey(Zipf.Bits[K], &Zipf.Names[K * kKeyLen]);
    }
  } else {
    Handoff.Population = C.Smoke ? 20000 : 600000;
  }
  for (int Ep = 0; Ep < Episodes; ++Ep) {
    const uint64_t Seed = C.Seed * 1000 + static_cast<uint64_t>(Ep);
    const Placement Where = placementFor(static_cast<uint64_t>(Ep));
    Episode E;
    if (C.Workload == "kv-zipf") {
      auto RunLibc = [&] {
        Episode L;
        zipfSetup(Zipf, Opts, Seed, Where, true, L);
        zipfWindow(Zipf, Seed, Window, nullptr, L);
        Libc->push_back(std::move(L));
      };
      if (Libc != nullptr && Ep % 2 == 1)
        RunLibc();
      zipfSetup(Zipf, Opts, Seed, Where, false, E);
      zipfWindow(Zipf, Seed, Window, Log, E);
      if (Libc != nullptr && Ep % 2 == 0)
        RunLibc();
    } else {
      // The runtime, and so its mesher thread, is created off the CPU
      // the window will use.
      setAffinity(Where.Others);
      handoffSetup(Handoff, Opts, Seed, E);
      handoffWindow(Handoff, Seed, Window, Where, Log, ConsumerLog, E);
      // Free the retained population before the runtime goes.
      for (const HandoffState::Kept &K : Handoff.Retained)
        Handoff.Rt->free(K.Ptr);
    }
    Out.push_back(std::move(E));
  }
  return Out;
}

std::vector<uint64_t> pooled(const std::vector<Episode> &Eps,
                             std::vector<uint64_t> Episode::*Field) {
  std::vector<uint64_t> All;
  for (const Episode &E : Eps)
    All.insert(All.end(), (E.*Field).begin(), (E.*Field).end());
  std::sort(All.begin(), All.end());
  return All;
}

/// Sorted per-request latencies in ns: a burst sample counts as its
/// per-message mean.
std::vector<double> latencies(const std::vector<Episode> &Eps) {
  std::vector<double> All;
  for (const Episode &E : Eps)
    for (uint64_t Ns : E.LatNs)
      All.push_back(static_cast<double>(Ns) / E.MsgsPerSample);
  std::sort(All.begin(), All.end());
  return All;
}

template <typename Fn>
double medianOf(const std::vector<Episode> &Eps, Fn &&Get) {
  std::vector<double> V;
  for (const Episode &E : Eps)
    V.push_back(Get(E));
  return median(V);
}

double opsPerS(const Episode &E, bool Cpu) {
  return static_cast<double>(E.Ops) / (Cpu ? E.CpuS : E.WallS);
}

void addFailures(const std::vector<Episode> &Eps, Report &Out) {
  uint64_t Null = 0, Sets = 0, Reads = 0, Lost = 0, Attempted = 0;
  for (const Episode &E : Eps) {
    Null += E.NullMallocs;
    Sets += E.FailedSets;
    Reads += E.BadReads;
    Lost += E.Lost;
    Attempted += E.Attempted;
  }
  Out.Attempted += Attempted;
  Out.Failed += Null + Sets + Reads + Lost;
  Out.Failures = {{"null_mallocs", Null},
                  {"failed_sets", Sets},
                  {"bad_reads", Reads},
                  {"lost_messages", Lost}};
}

/// Median per-request latency of one episode, in ns.
double p50Ns(const Episode &E) {
  std::vector<double> V;
  for (uint64_t Ns : E.LatNs)
    V.push_back(static_cast<double>(Ns) / E.MsgsPerSample);
  return median(V);
}

/// End-to-end metrics of the runtime episodes \p Eps. The speed ratios
/// pair episode i with libc episode i (same inputs, seconds apart); a
/// workload without libc episodes reports them as not applicable.
void addEndToEnd(const std::vector<Episode> &Eps,
                 const std::vector<Episode> &Libc, Report &Out) {
  const auto N = static_cast<uint64_t>(Eps.size());
  const std::vector<double> Lat = latencies(Eps);
  uint64_t Ops = 0, HeapSamples = 0;
  for (const Episode &E : Eps) {
    Ops += E.Ops;
    HeapSamples += E.HeapSamples;
  }
  const auto Med = [&Eps](double Episode::*Field) {
    return medianOf(Eps, [Field](const Episode &E) { return E.*Field; });
  };
  const double Rate =
      medianOf(Eps, [](const Episode &E) { return opsPerS(E, true); });
  std::vector<double> Speed, P50;
  for (size_t I = 0; I < Libc.size(); ++I) {
    Speed.push_back(opsPerS(Eps[I], true) / opsPerS(Libc[I], true));
    P50.push_back(p50Ns(Eps[I]) / p50Ns(Libc[I]));
  }
  const double NoValue = std::numeric_limits<double>::quiet_NaN();
  const char *NoLibc =
      Libc.empty() ? "no libc baseline: the handoff calls the runtime directly"
                   : "";
  Out.EndToEnd = {
      {"setup_s", Med(&Episode::SetupS), "s", N, "thread-cpu", ""},
      {"ops_per_s_vs_libc", Libc.empty() ? NoValue : median(Speed), "ratio",
       Speed.size(), "thread-cpu", NoLibc},
      {"op_p50_vs_libc", Libc.empty() ? NoValue : median(P50), "ratio",
       P50.size(), "wall", NoLibc},
      {"ops_per_s", Rate, "ops/s", Ops, "thread-cpu", ""},
      {"op_p50_us", percentileSorted(Lat, 50) * 1e-3, "us", Lat.size(),
       "wall", ""},
      {"heap_mean_mib", Med(&Episode::HeapMean) / kMiB, "MiB", HeapSamples,
       "", ""},
      {"heap_peak_mib", Med(&Episode::HeapPeak) / kMiB, "MiB", HeapSamples,
       "", ""},
      {"heap_final_mib", Med(&Episode::HeapFinal) / kMiB, "MiB", N, "", ""},
  };
}

double ratio(double Part, double Whole) { return Whole > 0 ? Part / Whole : 0; }

/// Per-layer metrics: counts and times from the traced episodes (counts
/// of mesh and background work are per episode), plus the untraced
/// figures that are reported rather than gated.
void addLayers(const RunConfig &C, const std::vector<Episode> &Plain,
               const std::vector<Episode> &Traced,
               const std::vector<std::unique_ptr<SpanLog>> &Logs,
               double NoMeshFinal, Report &Out) {
  Counters D;
  uint64_t Ops = 0, Evictions = 0, Calls = 0, Over = 0;
  for (const Episode &E : Traced) {
    D.accumulate(E.Delta, Counters());
    Ops += E.Ops;
    Evictions += E.Evictions;
    Calls += E.AllocCalls;
    Over += E.OverCommitted;
  }
  for (const Episode &E : Plain)
    Over += E.OverCommitted;
  std::vector<const SpanLog *> Raw;
  for (const auto &L : Logs)
    Raw.push_back(L.get());
  SpanSummary S = summarize(Raw);
  std::sort(S.MallocNs.begin(), S.MallocNs.end());
  std::sort(S.FreeNs.begin(), S.FreeNs.end());
  const double KOps = static_cast<double>(Ops) / 1000.0;
  const auto Episodes = static_cast<double>(Traced.size());
  const auto PerEp = [&](Counters::Field F) {
    return static_cast<double>(D.F[F]) / Episodes;
  };
  const auto Total = [&](Counters::Field F) {
    return static_cast<double>(D.F[F]);
  };
  const double Pairs = Total(Counters::kPairs);
  const double Pages = Total(Counters::kPagesMeshed);
  const double Probes = Total(Counters::kProbes);
  const bool Redis = C.Workload == "redis-lru";
  const bool Handoff = C.Workload == "xthread-handoff";

  const std::vector<double> Lat = latencies(Plain);
  const TailPercentile Tail = highestResolvedPercentile(Lat);
  const std::vector<uint64_t> Pauses = pooled(Plain, &Episode::PauseNs);
  const double CompactS =
      medianOf(Plain, [](const Episode &E) { return E.compactS(); });
  const double PlainRate =
      medianOf(Plain, [](const Episode &E) { return opsPerS(E, false); });
  const double TracedRate =
      medianOf(Traced, [](const Episode &E) { return opsPerS(E, false); });
  const double HeapFinal =
      medianOf(Plain, [](const Episode &E) { return E.HeapFinal; });
  const double PassMaxMs =
      medianOf(Plain, [](const Episode &E) { return E.MaxPassNs; }) * 1e-6;
  const double Reduction =
      NoMeshFinal > 0 ? 100.0 * (1.0 - HeapFinal / NoMeshFinal) : 0;
  const char *NoBg = Redis ? "background meshing is off in this workload" : "";

  auto M = [&](const char *Name, double Value, const char *Unit,
               uint64_t Samples = 0, const char *Note = "") {
    Out.Layer.push_back({Name, Value, Unit, Samples, "", Note});
  };
  // workloads/KVStore
  M("kvstore.self_share", ratio(S.RootSelfNs, S.RootNs), "ratio", S.Requests,
    Handoff ? "no KVStore: a request is producing one message" : "");
  M("kvstore.evictions_per_kop", Evictions / KOps, "1/kop", Ops,
    Redis ? "" : "no eviction budget in this workload");
  // core/Runtime -> ThreadLocalHeap -> ShuffleVector
  M("runtime.share", ratio(S.ChildNs, S.RootNs), "ratio", S.Requests);
  M("runtime.calls_per_op", ratio(Calls, Ops), "calls/op", Ops);
  M("runtime.malloc_ns_p50", percentileSorted(S.MallocNs, 50), "ns",
    S.MallocNs.size());
  M("runtime.malloc_ns_p99", percentileSorted(S.MallocNs, 99), "ns",
    S.MallocNs.size());
  M("runtime.free_ns_p50", percentileSorted(S.FreeNs, 50), "ns",
    S.FreeNs.size());
  M("runtime.free_ns_p99", percentileSorted(S.FreeNs, 99), "ns",
    S.FreeNs.size());
  // core/GlobalHeap refill
  M("globalheap.span_acquires_per_kop", D.count(kHSpan) / KOps, "1/kop",
    D.count(kHSpan));
  M("globalheap.span_acquire_ns_p50", D.p50(kHSpan), "ns", D.count(kHSpan));
  // The mesh pass: GlobalHeap::meshNow + Mesher + WriteBarrier
  M("mesh.passes_fg", PerEp(Counters::kPassesFg), "count");
  M("mesh.passes_bg", PerEp(Counters::kPassesBg), "count", 0, NoBg);
  M("mesh.pass_ms_max", PassMaxMs, "ms", Plain.size());
  M("mesh.pairs", Pairs / Episodes, "count");
  M("mesh.probes", Probes / Episodes, "count");
  M("mesh.pairs_per_kprobe", ratio(Pairs, Probes / 1000.0), "1/kprobe");
  M("mesh.pages_released", Pages / Episodes, "count");
  M("mesh.copied_bytes_per_page", ratio(Total(Counters::kBytesCopied), Pages),
    "B/page");
  M("mesh.scan_ns_p50", D.p50(kHScan), "ns", D.count(kHScan));
  M("mesh.remap_ns_p50", D.p50(kHRemap), "ns", D.count(kHRemap));
  M("mesh.release_ns_p50", D.p50(kHRelease), "ns", D.count(kHRelease));
  M("compact_s", CompactS, "s", Plain.size());
  M("pause_p50_ms", percentileSorted(Pauses, 50) * 1e-6, "ms", Pauses.size());
  // core/MeshableArena -> arena/MemfdArena -> support/Sys
  M("arena.punches_per_pair", ratio(D.count(kHPunch), Pairs), "1/pair",
    D.count(kHPunch));
  M("arena.remaps_per_pair", ratio(D.count(kHRemapSys), Pairs), "1/pair",
    D.count(kHRemapSys));
  M("arena.punch_ns_p50", D.p50(kHPunch), "ns", D.count(kHPunch));
  M("arena.remap_ns_p50", D.p50(kHRemapSys), "ns", D.count(kHRemapSys));
  M("arena.minor_faults_per_kop", Total(Counters::kMinFlt) / KOps, "1/kop");
  M("arena.kernel_over_committed", static_cast<double>(Over), "count");
  M("arena.dirty_mib_final", Traced.back().DirtyFinal / kMiB, "MiB");
  // support/Epoch
  M("epoch.syncs_per_kop", D.count(kHEpoch) / KOps, "1/kop",
    D.count(kHEpoch));
  M("epoch.sync_ns_p50", D.p50(kHEpoch), "ns", D.count(kHEpoch));
  // runtime/BackgroundMesher + runtime/PressureMonitor
  M("background.wakeups", PerEp(Counters::kBgWakeups), "count", 0, NoBg);
  M("background.poke_passes", PerEp(Counters::kBgPokePasses), "count", 0,
    NoBg);
  M("background.pressure_passes", PerEp(Counters::kBgPressurePasses),
    "count", 0, NoBg);
  // Process, faults, trace
  M("process.rss_mib_final", Traced.back().RssFinal / kMiB, "MiB");
  M("process.nivcsw", Total(Counters::kNivcsw), "count");
  M("faults.oom_returns", Total(Counters::kOom), "count");
  M("faults.mesh_rollbacks", Total(Counters::kRollbacks), "count");
  M("faults.punch_fallbacks", Total(Counters::kPunchFallbacks), "count");
  // Absolute speed and tail, reported here and not gated: between runs
  // minutes apart they follow the host's drift further (up to 28%) than
  // any bound the benchmark may set (STEADINESS.md).
  M("ops_per_s",
    medianOf(Plain, [](const Episode &E) { return opsPerS(E, true); }),
    "ops/s", Plain.size());
  M("op_p50_us", percentileSorted(Lat, 50) * 1e-3, "us", Lat.size());
  M("op_p99_us", percentileSorted(Lat, 99) * 1e-3, "us", Lat.size());
  M("request.tail_pct", Tail.Pct, "pct", Lat.size());
  M("request.tail_us", Tail.Value * 1e-3, "us", Tail.Beyond);
  M("request.samples", static_cast<double>(Lat.size()), "count");
  M("trace.overhead_pct", 100.0 * ratio(PlainRate - TracedRate, PlainRate),
    "%", Traced.size());
  M("trace.spans", static_cast<double>(S.Spans), "count", S.Spans);
  M("trace.nesting_violations",
    static_cast<double>(S.NestingViolations + S.NegativeSelf), "count");
  // Paper fidelity (Section 6.2.2), not gated.
  M("paper.heap_reduction_pct", Redis ? Reduction : 0, "%", 0,
    Redis ? "" : "the paper's Redis comparison runs on redis-lru only");
  if (Redis) {
    char Line[256];
    snprintf(Line, sizeof(Line),
             "paper: heap_final_mib %.1f vs %.1f with meshing off = %.1f%% "
             "reduction (paper: 39%%)",
             HeapFinal / kMiB, NoMeshFinal / kMiB, Reduction);
    Out.Lines.push_back(Line);
    snprintf(Line, sizeof(Line), "paper: compact_s %.3f (paper: 0.23 s)",
             CompactS);
    Out.Lines.push_back(Line);
    snprintf(Line, sizeof(Line), "paper: mesh.pass_ms_max %.2f (paper: 22 ms)",
             PassMaxMs);
    Out.Lines.push_back(Line);
  }
  if (S.Dropped > 0)
    Out.Lines.push_back("trace: " + std::to_string(S.Dropped) +
                        " spans dropped (log full)");
  // The span tree must nest: a violation is a failed run.
  const uint64_t Nesting = S.NestingViolations + S.NegativeSelf;
  Out.Failed += Nesting;
  Out.Failures.emplace_back("span_nesting", Nesting);
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"redis-lru", "kv-zipf",
                                                 "xthread-handoff"};
  return Names;
}

bool runWorkload(const RunConfig &C, Report &Out) {
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), C.Workload) == Names.end()) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n", C.Workload.c_str());
    return false;
  }
  const MeshOptions Opts = optionsFor(C.Workload);
  std::vector<std::unique_ptr<SpanLog>> Logs;
  if (!C.Trace) {
    std::vector<Episode> Libc;
    const std::vector<Episode> W =
        runWindows(C, C.Seconds, false, Logs, Opts,
                   C.Workload == "xthread-handoff" ? nullptr : &Libc);
    std::vector<Episode> All = W;
    All.insert(All.end(), Libc.begin(), Libc.end());
    addFailures(All, Out);
    addEndToEnd(W, Libc, Out);
  } else {
    // Untraced, then traced, over the same seed; the gap between the
    // two is the tracing overhead.
    const std::vector<Episode> Plain =
        runWindows(C, C.Seconds / 2, false, Logs, Opts);
    const std::vector<Episode> Traced =
        runWindows(C, C.Seconds / 2, true, Logs, Opts);
    std::vector<Episode> All = Plain;
    All.insert(All.end(), Traced.begin(), Traced.end());
    double NoMeshFinal = 0;
    if (C.Workload == "redis-lru") {
      // The paper's comparison: the first episode again, meshing off.
      MeshOptions Off = Opts;
      Off.MeshingEnabled = false;
      All.push_back(redisEpisode(C, Off, C.Seed * 1000, nullptr));
      NoMeshFinal = All.back().HeapFinal;
    }
    addFailures(All, Out);
    addLayers(C, Plain, Traced, Logs, NoMeshFinal, Out);
    if (!C.SpanPath.empty()) {
      std::vector<const SpanLog *> Raw;
      for (const auto &L : Logs)
        Raw.push_back(L.get());
      if (!writeSpans(C.SpanPath, Raw))
        Out.Lines.push_back("trace: could not write " + C.SpanPath);
    }
  }
  setAffinity(allowedCpus());
  for (const std::string &Leaf : missingLeaves())
    Out.Lines.push_back("mallctl leaf missing: " + Leaf);
  if (!missingLeaves().empty() &&
      std::find(missingLeaves().begin(), missingLeaves().end(),
                "stats.kernel_file_bytes") != missingLeaves().end()) {
    fprintf(stderr, "perfbench: the runtime lacks stats.kernel_file_bytes\n");
    return false;
  }
  return true;
}

} // namespace perfbench
