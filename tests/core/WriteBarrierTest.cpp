//===- WriteBarrierTest.cpp - Write barrier unit tests ---------------------===//

#include "core/WriteBarrier.h"

#include "arena/MemfdArena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

namespace mesh {
namespace {

TEST(WriteBarrierTest, EpochLifecycle) {
  WriteBarrier &WB = WriteBarrier::instance();
  EXPECT_FALSE(WB.epochActive());
  WB.beginEpoch();
  EXPECT_TRUE(WB.epochActive());
  WB.endEpoch();
  EXPECT_FALSE(WB.epochActive());
}

TEST(WriteBarrierTest, FaultOutsideArenasIsNotOurs) {
  WriteBarrier &WB = WriteBarrier::instance();
  int Stack = 0;
  EXPECT_FALSE(WB.handleFault(&Stack))
      << "faults outside registered arenas must be forwarded";
  EXPECT_FALSE(WB.handleFault(nullptr));
}

TEST(WriteBarrierTest, WriterBlocksUntilEpochEnds) {
  // Protect a page, start a writer that faults into the handler, then
  // end the epoch after remapping the page writable: the write must
  // complete and land.
  WriteBarrier &WB = WriteBarrier::instance();
  WB.ensureHandlerInstalled();
  MemfdArena Arena(16 * 1024 * 1024);
  WB.registerArena(Arena.base(), Arena.arenaBytes());

  char *Page = Arena.ptrForPage(0);
  Page[0] = 1;

  WB.beginEpoch();
  ASSERT_TRUE(Arena.protect(0, 1, /*ReadOnly=*/true));

  std::atomic<bool> WriterDone{false};
  std::thread Writer([&] {
    Page[0] = 42; // faults; handler waits for the epoch
    WriterDone.store(true);
  });

  // Give the writer time to fault and block.
  for (int I = 0; I < 50 && !WriterDone.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(WriterDone.load()) << "writer must be stalled by the barrier";

  ASSERT_TRUE(Arena.protect(0, 1, /*ReadOnly=*/false));
  WB.endEpoch();
  Writer.join();
  EXPECT_TRUE(WriterDone.load());
  EXPECT_EQ(Page[0], 42) << "blocked write must land after the epoch";

  WB.unregisterArena(Arena.base());
}

TEST(WriteBarrierTest, ReadsSucceedDuringEpoch) {
  WriteBarrier &WB = WriteBarrier::instance();
  WB.ensureHandlerInstalled();
  MemfdArena Arena(16 * 1024 * 1024);
  WB.registerArena(Arena.base(), Arena.arenaBytes());
  char *Page = Arena.ptrForPage(0);
  strcpy(Page, "readable");

  WB.beginEpoch();
  ASSERT_TRUE(Arena.protect(0, 1, true));
  EXPECT_STREQ(Page, "readable") << "reads proceed during relocation";
  ASSERT_TRUE(Arena.protect(0, 1, false));
  WB.endEpoch();
  WB.unregisterArena(Arena.base());
}

TEST(WriteBarrierTest, ArenaRegistrationLookup) {
  WriteBarrier &WB = WriteBarrier::instance();
  MemfdArena Arena(8 * 1024 * 1024);
  WB.registerArena(Arena.base(), Arena.arenaBytes());
  // No epoch active: handleFault on an arena address succeeds benignly
  // (treated as the epoch-just-ended race) rather than crashing.
  EXPECT_TRUE(WB.handleFault(Arena.base()));
  WB.unregisterArena(Arena.base());
  EXPECT_FALSE(WB.handleFault(Arena.base()))
      << "after unregistration the fault is foreign again";
}

} // namespace
} // namespace mesh
