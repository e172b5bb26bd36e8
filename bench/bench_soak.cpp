//===- bench_soak.cpp - Server-scale soak harness -----------------------------===//
///
/// The measurement substrate behind every "heavy traffic" claim in
/// ROADMAP.md: long-running KVStore and Redis workload soaks at
/// production shape — skewed (Zipfian) key popularity, value-size
/// churn across generations, Redis-style activeDefrag phases,
/// connection churn via freshly spawned worker threads per
/// generation, and fork bursts *while mutators run* (the
/// copy-to-fresh-memfd fork path under load). Each configuration
/// reports per-request p50/p99/p99.9 latency, mutator max pause split
/// foreground/background, an RSS-over-time series, and meshing
/// effectiveness (committed vs in-use vs kernel-charged file pages) as
/// one schema-versioned JSON line.
///
/// Two backends:
///   - mesh   (default): an in-process instance Runtime behind
///     MeshBackend — the library-API shape.
///   - system: plain ::malloc/::free. Run under
///     LD_PRELOAD=libmesh.so this measures the interposition shim's
///     default runtime (stats read through the preloaded mesh_mallctl,
///     found via dlsym(RTLD_NEXT)); without the preload it degrades to
///     a glibc reference run.
///
/// The committed BENCH_<pr>.json trajectory is produced by running the
/// "ci" profile in both modes (tools/make_bench_baseline.sh);
/// tools/bench_compare.py gates CI on it. Full runs remain manual:
///
///   ./build/bench/bench_soak --profile=full --json
///
/// Every get() verifies a deterministic per-key fill byte, so the soak
/// doubles as an end-to-end corruption fence across threads, defrag
/// passes, and forks; any mismatch fails the run with exit code 3.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/HeapBackend.h"
#include "core/Runtime.h"
#include "runtime/PressureMonitor.h"
#include "support/Rng.h"
#include "support/Sys.h"
#include "support/Telemetry.h"
#include "workloads/KVStore.h"
#include "workloads/MemoryMeter.h"
#include "workloads/Zipfian.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dlfcn.h>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mesh;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Hard cap on coordinator RSS samples; the series is reserved up
/// front (MemoryMeter self-measurement contract) and downsampled to
/// kSeriesRowsMax rows at emission.
constexpr size_t kMaxRssSamples = 4096;
constexpr size_t kSeriesRowsMax = 120;

//===----------------------------------------------------------------------===//
// Allocator stats: one snapshot shape, two sources.
//===----------------------------------------------------------------------===//

struct AllocatorSnapshot {
  double CommittedBytes = 0;
  double InUseBytes = 0;
  double KernelFileBytes = 0;
  double RssBytes = 0;
  double MaxPauseFgNs = 0;
  double MaxPauseBgNs = 0;
  double PassesFg = 0;
  double PassesBg = 0;
  /// telemetry.hist.mesh_pass buckets (all zero for glibc). Deltas
  /// between two snapshots give this run's pause distribution.
  uint64_t MeshPassBuckets[telemetry::kHistBuckets] = {};
};

class StatsReader {
public:
  virtual ~StatsReader() = default;
  virtual AllocatorSnapshot snapshot() const = 0;
  /// "mesh" / "mesh-preload" / "glibc" — baked into the config string
  /// so the comparator never matches a preload run against a glibc
  /// one.
  virtual const char *allocatorName() const = 0;
};

/// Instance-heap runs: read the Runtime's own counters directly.
class RuntimeStatsReader final : public StatsReader {
public:
  explicit RuntimeStatsReader(Runtime &R) : R(R) {}

  AllocatorSnapshot snapshot() const override {
    AllocatorSnapshot S;
    const MeshStats &Stats = R.global().stats();
    S.CommittedBytes = static_cast<double>(R.committedBytes());
    S.KernelFileBytes =
        static_cast<double>(pagesToBytes(R.global().kernelFilePages()));
    S.InUseBytes =
        static_cast<double>(R.global().sampleFootprint().InUseBytes);
    S.RssBytes = static_cast<double>(readRssBytes());
    S.MaxPauseFgNs = static_cast<double>(
        Stats.MaxForegroundPassNs.load(std::memory_order_relaxed));
    S.MaxPauseBgNs = static_cast<double>(
        Stats.MaxBackgroundPassNs.load(std::memory_order_relaxed));
    S.PassesFg = static_cast<double>(
        Stats.MeshPassesForeground.load(std::memory_order_relaxed));
    S.PassesBg = static_cast<double>(
        Stats.MeshPassesBackground.load(std::memory_order_relaxed));
    // Instance heaps share the process-wide telemetry rings, so this
    // reads the same histogram the mallctl leaf would.
    telemetry::readHistogram(telemetry::HistId::kHistMeshPass,
                             S.MeshPassBuckets);
    return S;
  }

  const char *allocatorName() const override { return "mesh"; }

private:
  Runtime &R;
};

using MallctlFn = int (*)(const char *, void *, size_t *, void *, size_t);

/// The preloaded shim's mesh_mallctl, or nullptr when not preloaded.
/// RTLD_NEXT skips this binary's statically linked copy (which fronts
/// a *different*, never-constructed default runtime) and finds the
/// LD_PRELOAD object's export — the allocator actually serving
/// ::malloc in that mode.
MallctlFn preloadedMallctl() {
  static MallctlFn Fn =
      reinterpret_cast<MallctlFn>(dlsym(RTLD_NEXT, "mesh_mallctl"));
  return Fn;
}

/// System-allocator runs: stats via the preloaded shim when present,
/// else process RSS only (glibc reference).
class SystemStatsReader final : public StatsReader {
public:
  AllocatorSnapshot snapshot() const override {
    AllocatorSnapshot S;
    S.RssBytes = static_cast<double>(readRssBytes());
    MallctlFn Ctl = preloadedMallctl();
    if (Ctl == nullptr)
      return S;
    S.CommittedBytes = readU64(Ctl, "stats.committed_bytes");
    S.KernelFileBytes = readU64(Ctl, "stats.kernel_file_bytes");
    S.InUseBytes = readU64(Ctl, "pressure.in_use_bytes");
    S.MaxPauseFgNs = readU64(Ctl, "stats.max_pause_foreground_ns");
    S.MaxPauseBgNs = readU64(Ctl, "stats.max_pause_background_ns");
    S.PassesFg = readU64(Ctl, "stats.mesh_passes_foreground");
    S.PassesBg = readU64(Ctl, "stats.mesh_passes_background");
    // The preloaded .so has its own telemetry globals (distinct from
    // this binary's statically linked copy), so the buckets must come
    // through its mallctl, not a direct telemetry:: call.
    size_t Len = sizeof(S.MeshPassBuckets);
    if (Ctl("telemetry.hist.mesh_pass", S.MeshPassBuckets, &Len, nullptr,
            0) != 0)
      memset(S.MeshPassBuckets, 0, sizeof(S.MeshPassBuckets));
    return S;
  }

  const char *allocatorName() const override {
    return preloadedMallctl() != nullptr ? "mesh-preload" : "glibc";
  }

private:
  static double readU64(MallctlFn Ctl, const char *Name) {
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    if (Ctl(Name, &Value, &Len, nullptr, 0) != 0)
      return 0;
    return static_cast<double>(Value);
  }
};

/// HeapBackend over ::malloc — under LD_PRELOAD=libmesh.so this is the
/// shim (production shape: *every* allocation in the process routes
/// through Mesh); without the preload, glibc.
class SystemBackend final : public HeapBackend {
public:
  void *malloc(size_t Bytes) override { return ::malloc(Bytes); }
  void free(void *Ptr) override { ::free(Ptr); }
  size_t usableSize(const void *Ptr) const override {
    return ::malloc_usable_size(const_cast<void *>(Ptr));
  }
  size_t committedBytes() const override {
    MallctlFn Ctl = preloadedMallctl();
    if (Ctl != nullptr) {
      uint64_t Value = 0;
      size_t Len = sizeof(Value);
      if (Ctl("stats.committed_bytes", &Value, &Len, nullptr, 0) == 0)
        return static_cast<size_t>(Value);
    }
    return readRssBytes();
  }
  size_t peakCommittedBytes() const override { return committedBytes(); }
  const char *name() const override { return "system"; }
};

//===----------------------------------------------------------------------===//
// Soak profiles.
//===----------------------------------------------------------------------===//

struct SoakProfile {
  const char *Name;
  // KVStore soak: Generations x Threads x OpsPerThread requests over a
  // Zipfian keyspace, sharded so worker threads contend on the
  // allocator rather than one store lock.
  uint64_t KvKeyspace;
  int KvGenerations;
  int KvThreads;
  uint64_t KvOpsPerThread;
  size_t KvBudgetBytes;
  // Redis soak: waves of the Section 6.2.2 aging shape, each phase on
  // a fresh connection thread.
  int RedisWaves;
  uint64_t RedisPhase1Keys;
  uint64_t RedisPhase2Keys;
  size_t RedisBudgetBytes;
  // Shared knobs.
  int ForksTotal;         ///< Fork bursts injected while mutators run.
  uint64_t ChildBurstOps; ///< Allocator ops each forked child performs.
  int SampleEveryMs;      ///< Coordinator RSS sampling cadence.
  uint64_t LatencySampleEvery;
};

const SoakProfile kProfiles[] = {
    // ~4M + ~1.8M requests, minutes of heap aging: the manual
    // measurement run.
    {"full", uint64_t{1} << 20, 16, 4, 62500, size_t{160} << 20, 6, 245000,
     59500, size_t{35} << 20, 8, 4000, 100, 8},
    // ~800k + ~313k requests, seconds: what CI runs per PR and what
    // BENCH_<pr>.json is committed from.
    {"ci", 150000, 8, 4, 25000, size_t{24} << 20, 3, 84000, 20400,
     size_t{12} << 20, 4, 2000, 20, 8},
    // The ctest bench-rot fence.
    {"smoke", 4096, 2, 2, 1500, size_t{1} << 20, 2, 1400, 340,
     size_t{512} << 10, 2, 500, 5, 1},
};

//===----------------------------------------------------------------------===//
// Fork bursts and the coordinator loop.
//===----------------------------------------------------------------------===//

/// --faults: run the KVStore soak with the canned syscall fault storm
/// armed (set in soakArg, consumed by the driver and the fork bursts).
bool GFaults = false;

/// Spreads the profile's fork budget across the soak at evenly spaced
/// operation thresholds, so children always fork off a process whose
/// worker threads are mid-mutation — the shape that historically
/// flushed the shared-memfd fork corruption.
class ForkPlan {
public:
  ForkPlan(const SoakProfile &P, uint64_t TotalOps)
      : Left(P.ForksTotal), BurstOps(P.ChildBurstOps),
        Interval(TotalOps / (static_cast<uint64_t>(P.ForksTotal) + 1)),
        NextAt(Interval) {}

  void maybeFork(HeapBackend &Backend, uint64_t OpsNow) {
    while (Left > 0 && OpsNow >= NextAt) {
      runBurst(Backend);
      NextAt += Interval;
    }
  }

  /// Runs any forks a faster-than-expected soak never triggered.
  void drain(HeapBackend &Backend) {
    while (Left > 0)
      runBurst(Backend);
  }

  uint64_t count() const { return Count; }

private:
  void runBurst(HeapBackend &Backend) {
    const pid_t Pid = fork();
    if (Pid < 0) {
      fprintf(stderr, "bench_soak: fork failed (errno %d)\n", errno);
      exit(3);
    }
    if (Pid == 0) {
      // Forked child of a multithreaded process: allocator calls only
      // (exactly what the fork protocol guarantees), no stdio, _exit.
      Rng Random(0xF07C + static_cast<uint64_t>(getpid()));
      void *Held[64] = {};
      for (uint64_t I = 0; I < BurstOps; ++I) {
        const size_t Slot = I % 64;
        if (Held[Slot] != nullptr)
          Backend.free(Held[Slot]);
        const size_t Size = size_t{16} << Random.inRange(0, 9); // 16B..8KiB
        Held[Slot] = Backend.malloc(Size);
        if (Held[Slot] == nullptr) {
          // Under --faults a null is the expected degradation, not a
          // protocol failure: skip the slot and keep churning.
          if (!GFaults)
            _exit(4);
          continue;
        }
        memset(Held[Slot], 0x5A, Size < 64 ? Size : 64);
      }
      for (void *P : Held)
        if (P != nullptr)
          Backend.free(P);
      _exit(0);
    }
    int Status = 0;
    if (waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0) {
      fprintf(stderr,
              "bench_soak: forked child failed (status 0x%x) — the fork "
              "path corrupted or killed it\n",
              Status);
      exit(3);
    }
    --Left;
    ++Count;
  }

  int Left;
  uint64_t BurstOps;
  uint64_t Interval;
  uint64_t NextAt;
  uint64_t Count = 0;
};

/// Coordinator loop, run on the main thread while \p Remaining worker
/// threads mutate: advances the meter by the workers' aggregate op
/// count, samples RSS on the profile cadence, and injects fork bursts
/// at their op thresholds.
void superviseWorkers(const SoakProfile &P, std::atomic<int> &Remaining,
                      std::atomic<uint64_t> &OpsDone, HeapBackend &Backend,
                      MemoryMeter &Meter, uint64_t &LastMetered,
                      ForkPlan &Forks) {
  while (Remaining.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(P.SampleEveryMs));
    const uint64_t Now = OpsDone.load(std::memory_order_relaxed);
    Meter.advanceOps(Now - LastMetered);
    LastMetered = Now;
    if (Meter.samples().size() < kMaxRssSamples)
      Meter.sampleNow();
    Forks.maybeFork(Backend, Now);
  }
  const uint64_t Now = OpsDone.load(std::memory_order_relaxed);
  Meter.advanceOps(Now - LastMetered);
  LastMetered = Now;
}

//===----------------------------------------------------------------------===//
// Soak results.
//===----------------------------------------------------------------------===//

struct SoakResult {
  uint64_t Ops = 0;
  uint64_t Forks = 0;
  int Threads = 0;
  double Seconds = 0;
  uint64_t Evictions = 0;
  uint64_t DefragMovedBytes = 0;
  uint64_t DefragPasses = 0;
  uint64_t GetMismatches = 0;
  std::vector<uint64_t> LatencySamples;
};

//===----------------------------------------------------------------------===//
// KVStore soak: sharded stores, Zipfian keys, mixed get/set/del.
//===----------------------------------------------------------------------===//

constexpr int kKvShards = 4;

/// Per-generation value length: cycles size classes so long-lived hot
/// keys and churning cold keys repeatedly change shape — the value
/// churn that ages a real cache's heap.
size_t valueLenForGeneration(int Generation) {
  static const size_t Cycle[] = {96, 240, 492, 128, 640, 1024, 64, 320};
  return Cycle[static_cast<size_t>(Generation) %
               (sizeof(Cycle) / sizeof(Cycle[0]))];
}

/// Deterministic per-key fill byte, verified on every get: the soak's
/// cross-thread / cross-defrag / cross-fork corruption fence.
char fillByteForKey(uint64_t KeyId) {
  return static_cast<char>('a' + (KeyId * 31) % 26);
}

SoakResult runKvSoak(HeapBackend &Backend, MemoryMeter &Meter,
                     const SoakProfile &P) {
  SoakResult Result;
  Result.Threads = P.KvThreads;
  const uint64_t TotalOps = static_cast<uint64_t>(P.KvGenerations) *
                            static_cast<uint64_t>(P.KvThreads) *
                            P.KvOpsPerThread;
  ForkPlan Forks(P, TotalOps);
  const uint64_t Start = nowNs();

  // Shards: worker threads hash keys across independently locked
  // stores, so the soak contends on the allocator, not one store lock.
  struct KvShard {
    std::mutex Lock;
    KVStore *Store = nullptr;
  };
  KvShard Shards[kKvShards];
  std::vector<std::unique_ptr<KVStore>> Stores;
  Stores.reserve(kKvShards);
  for (int S = 0; S < kKvShards; ++S) {
    Stores.push_back(
        std::make_unique<KVStore>(Backend, P.KvBudgetBytes / kKvShards));
    Shards[S].Store = Stores.back().get();
  }
  const ZipfianGenerator Zipf(P.KvKeyspace);

  std::atomic<uint64_t> OpsDone{0};
  std::atomic<uint64_t> Mismatches{0};
  std::mutex MergeLock;
  Result.LatencySamples.reserve(
      static_cast<size_t>(TotalOps / P.LatencySampleEvery) + 16);

  uint64_t LastMetered = 0;
  for (int Gen = 0; Gen < P.KvGenerations; ++Gen) {
    const size_t ValueLen = valueLenForGeneration(Gen);
    std::atomic<int> Remaining{P.KvThreads};
    // Connection churn: every generation runs on freshly spawned
    // worker threads (new TLS heaps; the dead generation's heaps
    // rotate their spans back to the global heap).
    std::vector<std::thread> Workers;
    Workers.reserve(static_cast<size_t>(P.KvThreads));
    for (int T = 0; T < P.KvThreads; ++T) {
      Workers.emplace_back([&, T, Gen, ValueLen] {
        Rng Random(0x50AC + static_cast<uint64_t>(Gen) * 131 +
                   static_cast<uint64_t>(T));
        std::vector<uint64_t> Latencies;
        Latencies.reserve(
            static_cast<size_t>(P.KvOpsPerThread / P.LatencySampleEvery) + 2);
        std::vector<char> Value(ValueLen);
        char Key[24];
        uint64_t LocalMismatches = 0;
        for (uint64_t I = 0; I < P.KvOpsPerThread; ++I) {
          // Scramble the Zipfian rank so hot keys scatter across the
          // key space (and therefore across shards and hash buckets).
          const uint64_t KeyId =
              (Zipf.next(Random) * 0x9E3779B97F4A7C15ULL) % P.KvKeyspace;
          const int Len = snprintf(Key, sizeof(Key), "user:%012llu",
                                   static_cast<unsigned long long>(KeyId));
          KvShard &Shard = Shards[KeyId % kKvShards];
          const uint32_t Op = Random.inRange(0, 99);
          const bool Sample = I % P.LatencySampleEvery == 0;
          const uint64_t T0 = Sample ? nowNs() : 0;
          if (Op < 70) {
            std::lock_guard<std::mutex> G(Shard.Lock);
            const std::string_view V =
                Shard.Store->get(std::string_view(Key, Len));
            if (!V.empty() && V[0] != fillByteForKey(KeyId))
              ++LocalMismatches;
          } else if (Op < 95) {
            memset(Value.data(), fillByteForKey(KeyId), Value.size());
            std::lock_guard<std::mutex> G(Shard.Lock);
            Shard.Store->set(std::string_view(Key, Len),
                             std::string_view(Value.data(), Value.size()));
          } else {
            std::lock_guard<std::mutex> G(Shard.Lock);
            Shard.Store->del(std::string_view(Key, Len));
          }
          if (Sample)
            Latencies.push_back(nowNs() - T0);
          OpsDone.fetch_add(1, std::memory_order_relaxed);
        }
        Mismatches.fetch_add(LocalMismatches, std::memory_order_relaxed);
        std::lock_guard<std::mutex> G(MergeLock);
        Result.LatencySamples.insert(Result.LatencySamples.end(),
                                     Latencies.begin(), Latencies.end());
        Remaining.fetch_sub(1, std::memory_order_release);
      });
    }
    superviseWorkers(P, Remaining, OpsDone, Backend, Meter, LastMetered,
                     Forks);
    for (std::thread &W : Workers)
      W.join();
    // Generation-boundary maintenance, alternating the two compaction
    // stories: Redis-style app-level defrag vs the allocator's own
    // flush. Workers are joined, so no shard lock is needed.
    if (Gen % 2 == 1) {
      for (const std::unique_ptr<KVStore> &Store : Stores)
        Result.DefragMovedBytes += Store->activeDefrag();
      ++Result.DefragPasses;
    } else {
      Backend.flush();
    }
    if (Meter.samples().size() < kMaxRssSamples)
      Meter.sampleNow();
  }
  Forks.drain(Backend);

  Result.Ops = OpsDone.load(std::memory_order_relaxed);
  Result.Forks = Forks.count();
  Result.GetMismatches = Mismatches.load(std::memory_order_relaxed);
  for (const std::unique_ptr<KVStore> &Store : Stores)
    Result.Evictions += Store->evictionCount();
  Result.Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  return Result;
}

//===----------------------------------------------------------------------===//
// Redis soak: waves of the Section 6.2.2 aging shape with connection
// churn and activeDefrag phases.
//===----------------------------------------------------------------------===//

SoakResult runRedisSoak(HeapBackend &Backend, MemoryMeter &Meter,
                        const SoakProfile &P) {
  SoakResult Result;
  Result.Threads = 1; // One live connection at a time, many over the run.
  const uint64_t TotalOps = static_cast<uint64_t>(P.RedisWaves) *
                            (P.RedisPhase1Keys + P.RedisPhase2Keys);
  ForkPlan Forks(P, TotalOps);
  const uint64_t Start = nowNs();

  KVStore Store(Backend, P.RedisBudgetBytes);
  std::atomic<uint64_t> OpsDone{0};
  std::mutex MergeLock;
  Result.LatencySamples.reserve(
      static_cast<size_t>(TotalOps / P.LatencySampleEvery) + 16);

  uint64_t LastMetered = 0;
  for (int Wave = 0; Wave < P.RedisWaves; ++Wave) {
    struct Phase {
      uint64_t Keys;
      size_t ValueLen;
    };
    // The paper's two-phase shape: bulk load at one size class, then
    // churn into another so freed space is the wrong shape for the
    // survivors.
    const Phase Phases[2] = {{P.RedisPhase1Keys, 240},
                             {P.RedisPhase2Keys, 492}};
    for (int Ph = 0; Ph < 2; ++Ph) {
      std::atomic<int> Remaining{1};
      // Connection churn: each phase is one freshly spawned client
      // thread that dies when the phase ends.
      std::thread Conn([&, Wave, Ph] {
        Rng Random(0x4ED1 + static_cast<uint64_t>(Wave) * 17 +
                   static_cast<uint64_t>(Ph));
        std::vector<uint64_t> Latencies;
        Latencies.reserve(
            static_cast<size_t>(Phases[Ph].Keys / P.LatencySampleEvery) + 2);
        std::vector<char> Value(Phases[Ph].ValueLen, Ph == 0 ? 'v' : 'w');
        char Key[24];
        for (uint64_t I = 0; I < Phases[Ph].Keys; ++I) {
          const int Len =
              snprintf(Key, sizeof(Key), "key:%016llx",
                       static_cast<unsigned long long>(Random.next()));
          const bool Sample = I % P.LatencySampleEvery == 0;
          const uint64_t T0 = Sample ? nowNs() : 0;
          Store.set(std::string_view(Key, Len),
                    std::string_view(Value.data(), Value.size()));
          if (Sample)
            Latencies.push_back(nowNs() - T0);
          OpsDone.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> G(MergeLock);
        Result.LatencySamples.insert(Result.LatencySamples.end(),
                                     Latencies.begin(), Latencies.end());
        Remaining.fetch_sub(1, std::memory_order_release);
      });
      superviseWorkers(P, Remaining, OpsDone, Backend, Meter, LastMetered,
                       Forks);
      Conn.join();
    }
    // Idle maintenance between waves, alternating app-level defrag
    // with the allocator's own compaction.
    if (Wave % 2 == 1) {
      Result.DefragMovedBytes += Store.activeDefrag();
      ++Result.DefragPasses;
    } else {
      Backend.flush();
    }
    if (Meter.samples().size() < kMaxRssSamples)
      Meter.sampleNow();
  }
  Forks.drain(Backend);

  Result.Ops = OpsDone.load(std::memory_order_relaxed);
  Result.Forks = Forks.count();
  Result.Evictions = Store.evictionCount();
  Result.Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  return Result;
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

/// Quantile estimate over log2 histogram buckets, matching
/// tools/mesh-top.py: bucket b represents 0 (b==0) or the arithmetic
/// midpoint 1.5 * 2^(b-1) of [2^(b-1), 2^b).
double histQuantileNs(const uint64_t Buckets[telemetry::kHistBuckets],
                      double Q) {
  uint64_t Total = 0;
  for (uint32_t B = 0; B < telemetry::kHistBuckets; ++B)
    Total += Buckets[B];
  if (Total == 0)
    return 0;
  const double Target = Q * static_cast<double>(Total);
  uint64_t Cum = 0;
  for (uint32_t B = 0; B < telemetry::kHistBuckets; ++B) {
    Cum += Buckets[B];
    if (static_cast<double>(Cum) >= Target)
      return static_cast<double>(telemetry::bucketLowerBound(B)) * 1.5;
  }
  return static_cast<double>(
             telemetry::bucketLowerBound(telemetry::kHistBuckets - 1)) *
         1.5;
}

void emitRun(const char *Workload, const char *Profile,
             const StatsReader &Reader, const AllocatorSnapshot &Before,
             SoakResult &R, const MemoryMeter &Meter) {
  const AllocatorSnapshot After = Reader.snapshot();
  const std::string Config =
      std::string(Workload) + "-" + Reader.allocatorName();

  const double P50 = benchQuantile(R.LatencySamples, 0.50);
  const double P99 = benchQuantile(R.LatencySamples, 0.99);
  const double P999 = benchQuantile(R.LatencySamples, 0.999);
  const double OpsPerSec =
      R.Seconds > 0 ? static_cast<double>(R.Ops) / R.Seconds : 0;
  // Meshing effectiveness: committed pages the kernel no longer
  // charges for (meshed-away aliases plus punched holes). Zero for
  // allocators without the counter (glibc).
  const double MeshedPct =
      After.CommittedBytes > 0 && After.KernelFileBytes > 0
          ? 100.0 * (After.CommittedBytes - After.KernelFileBytes) /
                After.CommittedBytes
          : 0;
  const double FragPct =
      After.CommittedBytes > 0
          ? 100.0 * (After.CommittedBytes - After.InUseBytes) /
                After.CommittedBytes
          : 0;

  printf("  %-22s %8.1f kops/s   p50/p99/p99.9 %5.1f/%6.1f/%7.1f us   "
         "pause fg/bg %.2f/%.2f ms\n",
         Config.c_str(), OpsPerSec / 1e3, P50 / 1e3, P99 / 1e3, P999 / 1e3,
         After.MaxPauseFgNs / 1e6, After.MaxPauseBgNs / 1e6);
  printf("  %-22s rss mean/peak %.1f/%.1f MiB   committed %.1f MiB   "
         "in-use %.1f MiB   meshed-away %.1f%%   forks %llu\n",
         "", toMiB(Meter.meanCommittedBytes()),
         toMiB(static_cast<double>(Meter.peakCommittedBytes())),
         toMiB(After.CommittedBytes), toMiB(After.InUseBytes), MeshedPct,
         static_cast<unsigned long long>(R.Forks));

  BenchJsonWriter W("bench_soak", Config.c_str());
  W.string("workload", Workload);
  W.string("allocator", Reader.allocatorName());
  W.string("profile", Profile);
  W.number("ops", static_cast<double>(R.Ops));
  W.number("threads", R.Threads);
  W.number("forks", static_cast<double>(R.Forks));
  W.number("seconds", R.Seconds);
  W.number("ops_per_sec", OpsPerSec);
  W.number("p50_op_ns", P50);
  W.number("p99_op_ns", P99);
  W.number("p999_op_ns", P999);
  W.number("samples_n", static_cast<double>(R.LatencySamples.size()));
  // Max pauses are monotonic process-lifetime maxima; pass counts are
  // deltas over this run (the preload runtime outlives a single soak).
  W.number("max_pause_fg_ns", After.MaxPauseFgNs);
  W.number("max_pause_bg_ns", After.MaxPauseBgNs);
  W.number("mesh_passes_fg", After.PassesFg - Before.PassesFg);
  W.number("mesh_passes_bg", After.PassesBg - Before.PassesBg);
  // Mesh-pause *distribution* for this run, from the telemetry layer's
  // mesh_pass latency histogram (bucket deltas across the run; the
  // preload runtime's rings outlive a single soak). All zeros for
  // glibc, which the comparator's "up" checks skip.
  uint64_t PauseDelta[telemetry::kHistBuckets] = {};
  uint64_t PauseSamples = 0;
  for (uint32_t B = 0; B < telemetry::kHistBuckets; ++B) {
    PauseDelta[B] = After.MeshPassBuckets[B] >= Before.MeshPassBuckets[B]
                        ? After.MeshPassBuckets[B] - Before.MeshPassBuckets[B]
                        : 0;
    PauseSamples += PauseDelta[B];
  }
  W.number("mesh_pause_samples", static_cast<double>(PauseSamples));
  W.number("mesh_pause_p50_ns", histQuantileNs(PauseDelta, 0.50));
  W.number("mesh_pause_p99_ns", histQuantileNs(PauseDelta, 0.99));
  W.number("mesh_pause_p999_ns", histQuantileNs(PauseDelta, 0.999));
  W.number("rss_mean_mib", toMiB(Meter.meanCommittedBytes()));
  W.number("rss_peak_mib",
           toMiB(static_cast<double>(Meter.peakCommittedBytes())));
  W.number("rss_final_mib", toMiB(After.RssBytes));
  W.number("committed_mib", toMiB(After.CommittedBytes));
  W.number("in_use_mib", toMiB(After.InUseBytes));
  W.number("kernel_file_mib", toMiB(After.KernelFileBytes));
  W.number("meshed_away_pct", MeshedPct);
  W.number("frag_pct", FragPct);
  W.number("evictions", static_cast<double>(R.Evictions));
  W.number("defrag_passes", static_cast<double>(R.DefragPasses));
  W.number("defrag_moved_mib",
           toMiB(static_cast<double>(R.DefragMovedBytes)));
  W.number("get_mismatches", static_cast<double>(R.GetMismatches));
  // The RSS-over-time series, downsampled to a bounded row count:
  // [op_index, elapsed_seconds, committed_mib] triples.
  W.beginArray("rss_series");
  const std::vector<MemoryMeter::Sample> &Samples = Meter.samples();
  const size_t Stride =
      Samples.size() > kSeriesRowsMax
          ? (Samples.size() + kSeriesRowsMax - 1) / kSeriesRowsMax
          : 1;
  for (size_t I = 0; I < Samples.size(); I += Stride)
    W.arrayRow({static_cast<double>(Samples[I].OpIndex),
                Samples[I].ElapsedSeconds,
                toMiB(static_cast<double>(Samples[I].CommittedBytes))});
  if (!Samples.empty() && (Samples.size() - 1) % Stride != 0) {
    const MemoryMeter::Sample &Last = Samples.back();
    W.arrayRow({static_cast<double>(Last.OpIndex), Last.ElapsedSeconds,
                toMiB(static_cast<double>(Last.CommittedBytes))});
  }
  W.endArray();
  W.emit();
}

//===----------------------------------------------------------------------===//
// Driver.
//===----------------------------------------------------------------------===//

const char *GProfileName = "full";
const char *GWorkload = "all";
bool GBackendMesh = true;

/// The --faults canned storm. Ops chosen so degradation — not abort —
/// is the correct response everywhere it lands: commit refusals make
/// malloc return nullptr (KVStore sets fail cleanly), punch failures
/// defer, madvise failures are best-effort anyway. The bring-up ops
/// (memfd_create, ftruncate, mmap) are deliberately excluded: forked
/// children rebuild their arena with them, and a child that cannot is
/// *required* to abort (DESIGN.md "Failure policy"), which would be a
/// correct crash but a useless soak.
constexpr const char *kFaultStorm =
    "commit:ENOMEM:every=3;fallocate:ENOSPC:every=7;madvise:ENOMEM:every=5";

bool soakArg(const char *Arg) {
  if (strncmp(Arg, "--profile=", 10) == 0) {
    const char *Value = Arg + 10;
    for (const SoakProfile &P : kProfiles)
      if (strcmp(P.Name, Value) == 0) {
        GProfileName = P.Name;
        return true;
      }
    return false;
  }
  if (strncmp(Arg, "--workload=", 11) == 0) {
    const char *Value = Arg + 11;
    if (strcmp(Value, "kvstore") != 0 && strcmp(Value, "redis") != 0 &&
        strcmp(Value, "all") != 0)
      return false;
    GWorkload = Value;
    return true;
  }
  if (strcmp(Arg, "--backend=mesh") == 0) {
    GBackendMesh = true;
    return true;
  }
  if (strcmp(Arg, "--backend=system") == 0) {
    GBackendMesh = false;
    return true;
  }
  if (strcmp(Arg, "--faults") == 0) {
    GFaults = true;
    return true;
  }
  return false;
}

uint64_t runOne(const char *Workload, const SoakProfile &P) {
  // Fresh backend per run so in-process soaks age a heap that lived
  // exactly one soak; the system backend's state (shim or glibc) is
  // process-wide by nature.
  std::unique_ptr<HeapBackend> Backend;
  std::unique_ptr<StatsReader> Reader;
  Runtime *FaultsRuntime = nullptr;
  if (GBackendMesh) {
    auto MB = std::make_unique<MeshBackend>(benchMeshOptions());
    Reader = std::make_unique<RuntimeStatsReader>(MB->runtime());
    FaultsRuntime = &MB->runtime();
    Backend = std::move(MB);
  } else {
    Backend = std::make_unique<SystemBackend>();
    Reader = std::make_unique<SystemStatsReader>();
  }

  // The pause-distribution keys in the JSON need the telemetry layer's
  // mesh_pass histogram recording. Enable it in whichever copy of the
  // allocator actually serves this run: this binary's for in-process
  // heaps, the preloaded shim's (via its mallctl) for --backend=system
  // under LD_PRELOAD. Glibc runs have neither and emit zeros.
  if (GBackendMesh) {
    telemetry::enable();
  } else if (MallctlFn Ctl = preloadedMallctl()) {
    bool On = true;
    Ctl("telemetry.enabled", nullptr, nullptr, &On, sizeof(On));
  }

  // Cadence is irrelevant (the coordinator samples on wall time via
  // advanceOps()/sampleNow()); reserve the full series up front so the
  // meter never measures its own reallocation.
  MemoryMeter Meter(*Backend, uint64_t{1} << 40);
  Meter.reserveForOps(0, kMaxRssSamples + 8);

  // Arm the storm only after bring-up: arena construction deliberately
  // aborts on failure (nothing to degrade onto yet), which is correct
  // behavior but not what this soak measures.
  const uint64_t InjectedBefore = sys::faultsInjected();
  if (GFaults && !sys::configureFaults(kFaultStorm)) {
    fprintf(stderr, "bench_soak: internal error: canned fault storm "
                    "rejected by the parser\n");
    exit(5);
  }

  const AllocatorSnapshot Before = Reader->snapshot();
  SoakResult R = strcmp(Workload, "kvstore") == 0
                     ? runKvSoak(*Backend, Meter, P)
                     : runRedisSoak(*Backend, Meter, P);
  if (GFaults)
    sys::clearFaults();
  emitRun(Workload, P.Name, *Reader, Before, R, Meter);
  if (R.GetMismatches > 0)
    fprintf(stderr,
            "bench_soak: %llu get() fill-byte mismatches in %s — heap "
            "corruption under load\n",
            static_cast<unsigned long long>(R.GetMismatches), Workload);

  if (GFaults) {
    // The smoke contract: the storm must actually have fired and have
    // been degraded into clean OOM returns — a soak where nothing bit
    // proves nothing — and with the injector cleared the heap must
    // serve every request again.
    uint64_t OomReturns = 0;
    size_t Len = sizeof(OomReturns);
    if (FaultsRuntime->mallctl("faults.oom_returns", &OomReturns, &Len,
                               nullptr, 0) != 0 ||
        sys::faultsInjected() == InjectedBefore || OomReturns == 0) {
      fprintf(stderr,
              "bench_soak: --faults storm never bit (injected %llu, "
              "oom_returns %llu)\n",
              static_cast<unsigned long long>(sys::faultsInjected() -
                                              InjectedBefore),
              static_cast<unsigned long long>(OomReturns));
      exit(5);
    }
    for (int I = 0; I < 256; ++I) {
      void *Probe = Backend->malloc(4096);
      if (Probe == nullptr) {
        fprintf(stderr,
                "bench_soak: heap did not recover after the fault storm\n");
        exit(5);
      }
      Backend->free(Probe);
    }
    printf("  faults: injected %llu, oom_returns %llu, recovery probe "
           "clean\n",
           static_cast<unsigned long long>(sys::faultsInjected() -
                                           InjectedBefore),
           static_cast<unsigned long long>(OomReturns));
  }
  return R.GetMismatches;
}

} // namespace

int main(int argc, char **argv) {
  benchInit(argc, argv, soakArg);
  if (benchSmokeMode())
    GProfileName = "smoke";
  if (GFaults) {
    if (!GBackendMesh) {
      fprintf(stderr, "bench_soak: --faults requires --backend=mesh (the "
                      "system allocator has no injection seam)\n");
      return 2;
    }
    // The fault smoke is a KVStore-only pass: the Redis soak's set()
    // calls are load-bearing (phase 2 depends on phase 1's keys), so
    // dropped sets there measure nothing extra.
    GWorkload = "kvstore";
  }
  const SoakProfile *Profile = nullptr;
  for (const SoakProfile &P : kProfiles)
    if (strcmp(P.Name, GProfileName) == 0)
      Profile = &P;

  printHeader("Server soak",
              "long-haul KVStore/Redis aging with latency + RSS trajectory");
  printf("profile %s, backend %s%s (flags: --profile=full|ci|smoke "
         "--workload=kvstore|redis|all --backend=mesh|system --faults)\n\n",
         Profile->Name, GBackendMesh ? "mesh (in-process)" : "system malloc",
         GFaults ? ", fault storm armed" : "");

  uint64_t Mismatches = 0;
  if (strcmp(GWorkload, "kvstore") == 0 || strcmp(GWorkload, "all") == 0)
    Mismatches += runOne("kvstore", *Profile);
  if (strcmp(GWorkload, "redis") == 0 || strcmp(GWorkload, "all") == 0)
    Mismatches += runOne("redis", *Profile);
  return Mismatches > 0 ? 3 : 0;
}
