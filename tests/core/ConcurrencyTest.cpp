//===- ConcurrencyTest.cpp - Multi-threaded allocator stress ---------------===//

#include "core/Runtime.h"

#include "TestConfig.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace mesh {
namespace {

TEST(ConcurrencyTest, ParallelChurnManyClasses) {
  Runtime R(testOptions());
  constexpr int kThreads = 8;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&R, T] {
      Rng Driver(1000 + T);
      std::vector<std::pair<char *, char>> Live;
      for (int I = 0; I < 20000; ++I) {
        if (Live.empty() || Driver.withProbability(0.55)) {
          const size_t Size = 16 << Driver.inRange(0, 6);
          auto *P = static_cast<char *>(R.malloc(Size));
          const char Tag = static_cast<char>('A' + T);
          memset(P, Tag, Size);
          Live.push_back({P, Tag});
        } else {
          const size_t Idx = Driver.inRange(0, Live.size() - 1);
          ASSERT_EQ(Live[Idx].first[0], Live[Idx].second)
              << "cross-thread corruption";
          R.free(Live[Idx].first);
          Live[Idx] = Live.back();
          Live.pop_back();
        }
      }
      for (auto &[P, Tag] : Live)
        R.free(P);
    });
  for (auto &Th : Threads)
    Th.join();
}

TEST(ConcurrencyTest, ProducerConsumerPipelines) {
  // Allocation on one thread, free on another (remote frees stress the
  // global-heap path and bitmap atomics).
  Runtime R(testOptions());
  constexpr int kItems = 30000;
  std::vector<std::atomic<void *>> Mailbox(64);
  for (auto &Slot : Mailbox)
    Slot.store(nullptr);
  std::atomic<int> Produced{0}, Consumed{0};

  std::thread Producer([&] {
    Rng Driver(5);
    while (Produced.load() < kItems) {
      const int Slot = Driver.inRange(0, 63);
      void *Expected = nullptr;
      void *P = R.malloc(32 + 16 * Driver.inRange(0, 4));
      memset(P, 0x6B, 32);
      if (Mailbox[Slot].compare_exchange_strong(Expected, P))
        Produced.fetch_add(1);
      else
        R.free(P);
    }
  });
  std::thread Consumer([&] {
    Rng Driver(6);
    while (Consumed.load() < kItems) {
      const int Slot = Driver.inRange(0, 63);
      void *P = Mailbox[Slot].exchange(nullptr);
      if (P != nullptr) {
        ASSERT_EQ(static_cast<unsigned char *>(P)[0], 0x6B);
        R.free(P);
        Consumed.fetch_add(1);
      }
    }
  });
  Producer.join();
  Consumer.join();
  // Drain leftovers.
  for (auto &Slot : Mailbox)
    if (void *P = Slot.exchange(nullptr))
      R.free(P);
}

TEST(ConcurrencyTest, MeshingRacesWithAllocation) {
  // One thread repeatedly meshes while others churn. Meshing only
  // touches detached spans, so all application data must survive.
  MeshOptions Opts = testOptions();
  Opts.MeshPeriodMs = 0; // mesh as often as asked
  Runtime R(Opts);
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Meshes{0};

  std::thread Mesher([&] {
    while (!Stop.load()) {
      R.meshNow();
      Meshes.fetch_add(1);
    }
  });

  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&R, T] {
      Rng Driver(50 + T);
      std::vector<std::pair<uint64_t *, uint64_t>> Live;
      for (int I = 0; I < 15000; ++I) {
        if (Live.empty() || Driver.withProbability(0.5)) {
          auto *P = static_cast<uint64_t *>(R.malloc(16));
          const uint64_t Stamp = Driver.next();
          *P = Stamp;
          Live.push_back({P, Stamp});
        } else {
          const size_t Idx = Driver.inRange(0, Live.size() - 1);
          ASSERT_EQ(*Live[Idx].first, Live[Idx].second)
              << "object corrupted while meshing ran";
          R.free(Live[Idx].first);
          Live[Idx] = Live.back();
          Live.pop_back();
        }
        // Periodically rotate spans back to the global heap so the
        // mesher has candidates.
        if (I % 2048 == 0)
          R.localHeap().releaseAll();
      }
      for (auto &[P, Stamp] : Live) {
        ASSERT_EQ(*P, Stamp);
        R.free(P);
      }
    });
  for (auto &Th : Workers)
    Th.join();
  Stop.store(true);
  Mesher.join();
  EXPECT_GT(Meshes.load(), 0u);
}

TEST(ConcurrencyTest, ConcurrentWritersHitWriteBarrier) {
  // Writers continuously mutate live objects in detached spans while
  // meshing runs. The mprotect write barrier must serialize relocation
  // against those writes without losing updates. Auto-meshing stays
  // off (testOptions) so all compaction happens in the measured loop.
  Runtime R(testOptions());

  // Build fragmented, detached spans whose objects stay live.
  std::vector<std::atomic<uint64_t> *> Cells;
  {
    std::vector<void *> ToFree;
    for (int I = 0; I < 64 * 256; ++I) {
      void *P = R.malloc(16);
      if (I % 8 == 0)
        Cells.push_back(new (P) std::atomic<uint64_t>(0));
      else
        ToFree.push_back(P);
    }
    for (void *P : ToFree)
      R.free(P);
    R.localHeap().releaseAll();
  }

  std::atomic<bool> Stop{false};
  std::atomic<int> Started{0};
  std::vector<std::thread> Writers;
  for (int T = 0; T < 4; ++T)
    Writers.emplace_back([&, T] {
      Rng Driver(80 + T);
      Started.fetch_add(1);
      while (!Stop.load()) {
        auto *Cell = Cells[Driver.inRange(0, Cells.size() - 1)];
        Cell->fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Meshing must overlap the writers, not race ahead of their startup.
  while (Started.load() < 4)
    std::this_thread::yield();

  uint64_t TotalFreed = 0;
  for (int Pass = 0; Pass < 20; ++Pass)
    TotalFreed += R.meshNow();
  Stop.store(true);
  for (auto &Th : Writers)
    Th.join();
  EXPECT_GT(TotalFreed, 0u)
      << "meshing should reclaim under writers (binned="
      << R.global().binnedCount(0)
      << " passes=" << R.global().stats().meshPasses()
      << " probes=" << R.global().stats().MeshProbeCount.load() << ")";

  // Sum of counters must equal total increments: fetch_add through the
  // barrier never loses an update. (We can't know the expected total,
  // but corruption would show as wildly inconsistent cells or crashes;
  // validate cells are readable and the heap is intact.)
  uint64_t Sum = 0;
  for (auto *Cell : Cells)
    Sum += Cell->load();
  EXPECT_GT(Sum, 0u);
  for (auto *Cell : Cells)
    R.free(Cell);
}

} // namespace
} // namespace mesh
