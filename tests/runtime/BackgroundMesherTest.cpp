//===- BackgroundMesherTest.cpp - Background meshing runtime tests ----------===//
///
/// Pins the background runtime's contract:
///   - thread lifecycle: start with the Runtime, observable wakeups,
///     clean stop/join on teardown (repeatedly), including right after
///     poking threads are joined;
///   - the poke path: allocation triggers execute on the mesher thread,
///     never on the mutator;
///   - the acceptance scenario: an idle, fragmented heap — allocate,
///     free most objects, then stop calling the allocator entirely —
///     releases pages via a pressure-triggered background pass;
///   - the fork protocol: quiesce before fork, restart in parent and
///     child, child can keep allocating.
///
//===----------------------------------------------------------------------===//

#include "runtime/BackgroundMesher.h"

#include "core/Runtime.h"
#include "core/ThreadLocalHeap.h"
#include "TestConfig.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <ctime>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define MESH_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MESH_TEST_TSAN 1
#endif
#endif

using namespace mesh;

namespace {

void sleepMs(uint64_t Ms) {
  timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ms / 1000);
  Ts.tv_nsec = static_cast<long>((Ms % 1000) * 1000000ULL);
  nanosleep(&Ts, nullptr);
}

uint64_t readCounter(Runtime &R, const char *Name) {
  uint64_t Value = 0;
  size_t Len = sizeof(Value);
  EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), 0) << Name;
  return Value;
}

/// Polls \p Name (allocation-free: mallctl counter reads touch only
/// atomics) until it reaches \p Target or \p DeadlineMs expires.
bool waitForCounter(Runtime &R, const char *Name, uint64_t Target,
                    uint64_t DeadlineMs) {
  for (uint64_t Waited = 0; Waited < DeadlineMs; Waited += 5) {
    if (readCounter(R, Name) >= Target)
      return true;
    sleepMs(5);
  }
  return readCounter(R, Name) >= Target;
}

MeshOptions backgroundOptions() {
  MeshOptions Opts;
  Opts.ArenaBytes = size_t{1} << 30;
  Opts.BackgroundMeshing = true;
  Opts.BackgroundWakeMs = 5;
  return Opts;
}

/// The standard fragmented image: \p Spans one-page spans of 16-byte
/// objects, 1-in-8 random-offset survivors, everything detached from
/// the local heap. After this, ~87% of committed span bytes are dead.
std::vector<void *> fragmentHeap(Runtime &R, int Spans) {
  std::vector<void *> Kept, Toss;
  for (int I = 0; I < Spans * 256; ++I) {
    void *P = R.malloc(16);
    EXPECT_NE(P, nullptr) << "arena exhausted";
    if (P == nullptr)
      break;
    (I % 8 == 0 ? Kept : Toss).push_back(P);
  }
  R.localHeap().releaseAll();
  for (void *P : Toss)
    R.free(P);
  return Kept;
}

TEST(BackgroundMesherTest, StartStopJoinRepeatedly) {
  for (int Round = 0; Round < 3; ++Round) {
    Runtime R(backgroundOptions());
    ASSERT_NE(R.backgroundMesher(), nullptr);
    EXPECT_TRUE(R.backgroundMesher()->running());
    EXPECT_EQ(readCounter(R, "background.enabled"), 1u);
    // The timer must tick without any allocator traffic.
    EXPECT_TRUE(waitForCounter(R, "background.wakeups", 2, 2000))
        << "mesher thread never woke";
    // Destruction stops and joins; a wedged join would hang the test.
  }
}

TEST(BackgroundMesherTest, SynchronousFallbackWhenDisabled) {
  MeshOptions Opts = backgroundOptions();
  Opts.BackgroundMeshing = false;
  Runtime R(Opts);
  EXPECT_EQ(R.backgroundMesher(), nullptr);
  EXPECT_EQ(readCounter(R, "background.enabled"), 0u);
  EXPECT_EQ(readCounter(R, "background.passes"), 0u);
  // Passes still happen — synchronously, attributed to the foreground.
  auto Kept = fragmentHeap(R, 16);
  EXPECT_GE(R.meshNow(), 0u);
  EXPECT_GE(readCounter(R, "stats.mesh_passes_foreground"), 1u);
  EXPECT_EQ(readCounter(R, "stats.mesh_passes_background"), 0u);
  for (void *P : Kept)
    R.free(P);
}

TEST(BackgroundMesherTest, PokesExecuteOnMesherThread) {
  MeshOptions Opts = backgroundOptions();
  Opts.BackgroundWakeMs = 1000;     // timer effectively off
  Opts.PressureFragThresholdPct = 0; // pressure off: pokes only
  Opts.MeshPeriodMs = 0;             // every trigger eligible
  Runtime R(Opts);

  // Refill-heavy churn: spans fill and detach, remote-style frees land
  // through the global heap, and each refill pokes the mesher.
  const int Rounds = stressScaled(20);
  for (int Round = 0; Round < Rounds; ++Round) {
    std::vector<void *> Block;
    for (int I = 0; I < 4 * 256; ++I)
      Block.push_back(R.malloc(16));
    R.localHeap().releaseAll();
    for (void *P : Block)
      R.free(P);
    if (readCounter(R, "background.passes") >= 1)
      break;
    sleepMs(5);
  }
  EXPECT_GE(readCounter(R, "background.requests"), 1u);
  EXPECT_TRUE(waitForCounter(R, "background.passes", 1, 5000))
      << "no pass ever ran on the mesher thread";
  // The whole point: the mutator executed none of them.
  EXPECT_EQ(readCounter(R, "stats.mesh_passes_foreground"), 0u);
  EXPECT_EQ(readCounter(R, "stats.max_pause_foreground_ns"), 0u);
}

// mesh.probes and mesh.max_per_pass are option fields that every pass
// reads on the mesher thread. Retuning them through mallctl while
// passes run must serialize with the pass; TSan reports it otherwise.
TEST(BackgroundMesherTest, KnobWritesSerializeWithBackgroundPasses) {
  MeshOptions Opts = backgroundOptions();
  Opts.BackgroundWakeMs = 1000;      // timer effectively off
  Opts.PressureFragThresholdPct = 0; // pressure off: pokes only
  Opts.MeshPeriodMs = 0;             // every trigger eligible
  Runtime R(Opts);

  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I) {
      uint64_t Probes = 16 + I % 64;
      uint64_t MaxPerPass = I % 2 == 0 ? 0 : 1 + I % 16;
      EXPECT_EQ(R.mallctl("mesh.probes", nullptr, nullptr, &Probes,
                          sizeof(Probes)),
                0);
      EXPECT_EQ(R.mallctl("mesh.max_per_pass", nullptr, nullptr,
                          &MaxPerPass, sizeof(MaxPerPass)),
                0);
      EXPECT_EQ(readCounter(R, "mesh.probes"), Probes);
      std::this_thread::yield();
    }
  });

  // The same refill churn as PokesExecuteOnMesherThread, until the
  // mesher has run several passes under the writer.
  const uint64_t TargetPasses = 16;
  const int Rounds = static_cast<int>(stressScaled(400));
  for (int Round = 0; Round < Rounds; ++Round) {
    if (readCounter(R, "background.passes") >= TargetPasses)
      break;
    std::vector<void *> Block;
    for (int I = 0; I < 4 * 256; ++I)
      Block.push_back(R.malloc(16));
    R.localHeap().releaseAll();
    for (void *P : Block)
      R.free(P);
    sleepMs(2);
  }
  EXPECT_TRUE(waitForCounter(R, "background.passes", TargetPasses, 5000))
      << "the mesher ran too few passes to exercise the race";
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
}

// The teardown contract: ~Runtime runs only once every other thread is
// done with the runtime, so stop() clears the sink once and deletes the
// mesher with nothing pinning it. Pokers that hit the sink on every
// refill until they exit, and are then joined, must leave a runtime
// that tears down cleanly; a poke still in flight at the delete would
// be a use-after-free, which TSan (and ASan) would report.
TEST(BackgroundMesherTest, TeardownAfterPokersJoin) {
  MeshOptions Opts = backgroundOptions();
  Opts.BackgroundWakeMs = 1000;      // timer effectively off
  Opts.PressureFragThresholdPct = 0; // pressure off: pokes only
  Opts.MeshPeriodMs = 0;             // every refill pokes
  const int Refills = static_cast<int>(stressScaled(8));
  for (int Round = 0; Round < 4; ++Round) {
    Runtime R(Opts);
    std::vector<std::thread> Pokers;
    for (int T = 0; T < 3; ++T) {
      Pokers.emplace_back([&R, Refills] {
        for (int I = 0; I < Refills; ++I) {
          std::vector<void *> Block;
          for (int J = 0; J < 2 * 256; ++J)
            Block.push_back(R.malloc(16));
          R.localHeap().releaseAll();
          for (void *P : Block)
            R.free(P);
        }
      });
    }
    for (std::thread &T : Pokers)
      T.join();
    EXPECT_GE(readCounter(R, "background.requests"), 1u)
        << "round " << Round << ": no poke reached the mesher";
    EXPECT_EQ(readCounter(R, "stats.mesh_passes_foreground"), 0u)
        << "round " << Round;
  }
}

// The acceptance scenario (ISSUE 4): allocate, free most objects, stop
// allocating. Nothing ever pokes again, yet the heap must shrink via a
// background pressure pass, observable through background.* counters.
TEST(BackgroundMesherTest, PressureCompactsIdleFragmentedHeap) {
  MeshOptions Opts = backgroundOptions();
  Opts.MeshPeriodMs = ~uint64_t{0}; // pokes can never pass the gate
  Opts.PressureFragThresholdPct = 10;
  Opts.PressureMinCommittedBytes = 128 * 1024;
  Runtime R(Opts);

  // Hold compaction off while the fragmented image is built — under
  // TSan the build takes long enough that timer wakes would otherwise
  // legitimately compact it mid-construction. The mesh.enabled switch
  // is atomic precisely so this toggle is race-free against the
  // running mesher thread.
  bool Enabled = false;
  ASSERT_EQ(R.mallctl("mesh.enabled", nullptr, nullptr, &Enabled,
                      sizeof(Enabled)),
            0);
  auto Kept = fragmentHeap(R, 256); // ~1 MiB committed, ~7/8 dead
  const size_t CommittedBefore = R.committedBytes();
  ASSERT_GE(CommittedBefore, Opts.PressureMinCommittedBytes);
  ASSERT_EQ(readCounter(R, "background.passes"), 0u);
  Enabled = true;
  ASSERT_EQ(R.mallctl("mesh.enabled", nullptr, nullptr, &Enabled,
                      sizeof(Enabled)),
            0);

  // From here on: no allocator calls. Counter polls read atomics and
  // the sleep is nanosleep — the heap is genuinely idle.
  EXPECT_TRUE(waitForCounter(R, "background.pressure_passes", 1, 10000))
      << "idle fragmented heap was never compacted";
  EXPECT_GE(readCounter(R, "background.passes"), 1u);
  EXPECT_EQ(readCounter(R, "stats.mesh_passes_foreground"), 0u);
  const size_t CommittedAfter = R.committedBytes();
  EXPECT_LT(CommittedAfter, CommittedBefore)
      << "pressure pass released no pages";

  // The monitor's published signals are coherent with what happened.
  // (<=, not ==: the mesher is still running and a further pass may
  // release more pages between these two reads.)
  EXPECT_GE(readCounter(R, "pressure.rss_bytes"), kPageSize);
  const uint64_t SampledCommitted =
      readCounter(R, "pressure.committed_bytes");
  EXPECT_GT(SampledCommitted, 0u);
  EXPECT_LE(SampledCommitted, CommittedAfter);

  for (void *P : Kept)
    R.free(P);
}

TEST(BackgroundMesherTest, ForkQuiescesAndRestartsBothSides) {
  Runtime R(backgroundOptions());
  ASSERT_TRUE(waitForCounter(R, "background.wakeups", 1, 2000));

  std::vector<void *> Pre;
  for (int I = 0; I < 512; ++I)
    Pre.push_back(R.malloc(32 + (I % 7) * 16));

  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0) << "fork failed";
  if (Pid == 0) {
    // Child: the heap must be fully usable (fork-then-allocate). The
    // mesher restarts *lazily* — pthread_create is not
    // async-signal-safe inside the atfork child handler, so the
    // handler only re-arms the mesher and the first post-fork poke
    // spawns the thread.
    BackgroundMesher *BM = R.backgroundMesher();
    if (BM == nullptr)
      _exit(40);
    if (BM->running())
      _exit(41); // restarted inside the handler — the unsafe path
    // Open the poke gate so the very first refill restarts the thread.
    uint64_t Zero = 0;
    if (R.mallctl("mesh.period_ms", nullptr, nullptr, &Zero,
                  sizeof(Zero)) != 0)
      _exit(42);
    for (int I = 0; I < 2000; ++I) {
      void *P = R.malloc(16 + (I % 64) * 8);
      if (P == nullptr)
        _exit(43);
      memset(P, 0x5A, 8);
      R.free(P);
    }
    if (!BM->running())
      _exit(44); // allocation churn never poked the mesher back up
    R.meshNow(); // a full pass must not wedge on inherited state
    uint64_t Wakes = 0;
    size_t Len = sizeof(Wakes);
    if (R.mallctl("background.wakeups", &Wakes, &Len, nullptr, 0) != 0)
      _exit(45);
    _exit(0);
  }

  // Parent: child exits clean, and our own mesher keeps ticking.
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "child-side failure";
  ASSERT_NE(R.backgroundMesher(), nullptr);
  EXPECT_TRUE(R.backgroundMesher()->running());
  const uint64_t WakesAfterFork = readCounter(R, "background.wakeups");
  EXPECT_TRUE(
      waitForCounter(R, "background.wakeups", WakesAfterFork + 2, 2000))
      << "parent mesher did not keep running after fork";
  for (void *P : Pre)
    R.free(P);
}

// Regression for the fork/wake-mutex race: a mutator can be *inside*
// requestMeshPass() — owning the mesher's wake mutex — at the fork
// instant (quiescing joins only the mesher thread; pokers are
// application threads the atfork protocol does not stop). The child
// must re-initialize the mutex rather than inherit it locked by a
// thread that does not exist there; before that fix, the child's first
// poke deadlocked. Fork repeatedly under continuous poke traffic and
// require every child to allocate and exit; a bounded wait turns the
// historical deadlock into a test failure instead of a suite hang.
TEST(BackgroundMesherTest, ForkWhileMutatorsPokeConcurrently) {
#ifdef MESH_TEST_TSAN
  GTEST_SKIP() << "TSan does not support spawning threads in the child "
                  "of a multi-threaded fork (the lazy mesher restart "
                  "does exactly that)";
#else
  MeshOptions Opts = backgroundOptions();
  Opts.MeshPeriodMs = 0;             // every refill pokes: maximal mutex traffic
  Opts.PressureFragThresholdPct = 0; // pressure off: pokes only
  Runtime R(Opts);

  std::atomic<bool> Stop{false};
  auto Churn = [&R, &Stop] {
    std::vector<void *> Block;
    while (!Stop.load(std::memory_order_relaxed)) {
      for (int I = 0; I < 256; ++I)
        Block.push_back(R.malloc(16 + (I % 16) * 32));
      R.localHeap().releaseAll();
      for (void *P : Block)
        R.free(P);
      Block.clear();
    }
  };
  std::thread T1(Churn), T2(Churn);

  const int Forks = static_cast<int>(stressScaled(8));
  for (int F = 0; F < Forks; ++F) {
    const pid_t Pid = fork();
    if (Pid < 0)
      break; // out of processes: the rounds already run stand
    if (Pid == 0) {
      // Child: single-threaded here. Allocating takes the heap locks
      // the handlers released and pokes through the re-initialized
      // wake mutex (which also lazily restarts the mesher). The alarm
      // converts any child-side wedge into a signal death the parent's
      // status check reports — it must stay below the parent's 20 s
      // bounded wait so the SIGALRM attribution wins over SIGKILL.
      alarm(10);
      for (int I = 0; I < 512; ++I) {
        void *P = R.malloc(64);
        if (P == nullptr)
          _exit(43);
        memset(P, 0x6B, 8);
        R.free(P);
      }
      // Fork again (bash subshell chains do): the quiesce protocol
      // must also hold when this process's own mesher was lazily
      // restarted moments ago.
      const pid_t GPid = fork();
      if (GPid == 0) {
        alarm(10); // fork clears the inherited alarm; re-arm our own
        for (int I = 0; I < 256; ++I) {
          void *P = R.malloc(64);
          if (P == nullptr)
            _exit(45);
          R.free(P);
        }
        _exit(0);
      }
      if (GPid > 0) {
        int GSt = 0;
        if (waitpid(GPid, &GSt, 0) != GPid || !WIFEXITED(GSt) ||
            WEXITSTATUS(GSt) != 0)
          _exit(44);
      }
      _exit(0);
    }
    int Status = 0;
    pid_t Got = 0;
    for (uint64_t Waited = 0; Waited < 20000 && Got != Pid; Waited += 10) {
      Got = waitpid(Pid, &Status, WNOHANG);
      if (Got == 0)
        sleepMs(10);
    }
    if (Got != Pid) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      Stop.store(true);
      T1.join();
      T2.join();
      FAIL() << "forked child wedged on inherited mesher state";
    }
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Stop.store(true);
      T1.join();
      T2.join();
      FAIL() << "child-side failure (status " << Status << ")";
    }
  }
  Stop.store(true);
  T1.join();
  T2.join();
#endif
}

} // namespace
