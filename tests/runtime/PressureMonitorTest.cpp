//===- PressureMonitorTest.cpp - Pressure policy unit tests -----------------===//
///
/// The policy is exercised on hand-built footprints (threshold
/// boundaries, the committed floor, the disable switch, the clamp) and
/// the production sample is sanity-checked against a real heap: the
/// invariants committed >= span >= in-use must hold on any live
/// footprint sample.
///
//===----------------------------------------------------------------------===//

#include "runtime/PressureMonitor.h"

#include "core/Runtime.h"
#include "core/ThreadLocalHeap.h"

#include "TestConfig.h"

#include <gtest/gtest.h>

#include <vector>

using namespace mesh;

namespace {

constexpr size_t kMiB = 1024 * 1024;

/// Options carrying the two pressure knobs the policy reads.
MeshOptions pressureOptions(uint32_t FragThresholdPct,
                            size_t MinCommittedBytes) {
  MeshOptions Opts;
  Opts.PressureFragThresholdPct = FragThresholdPct;
  Opts.PressureMinCommittedBytes = MinCommittedBytes;
  return Opts;
}

HeapFootprint footprint(size_t CommittedBytes, size_t InUseBytes) {
  HeapFootprint F;
  F.CommittedBytes = CommittedBytes;
  F.InUseBytes = InUseBytes;
  return F;
}

TEST(PressureMonitorTest, FragPpmMath) {
  EXPECT_EQ(fragPpm(0, 0), 0u);
  EXPECT_EQ(fragPpm(100, 100), 0u);
  EXPECT_EQ(fragPpm(100, 50), 500000u);
  EXPECT_EQ(fragPpm(100, 0), 1000000u);
  EXPECT_EQ(fragPpm(4 * kMiB, 3 * kMiB), 250000u);
  // InUse above committed (attached-span overcount racing a commit
  // update) clamps to "no pressure", never wraps.
  EXPECT_EQ(fragPpm(100, 200), 0u);
}

TEST(PressureMonitorTest, ThresholdBoundary) {
  const MeshOptions Opts = pressureOptions(30, kMiB);
  // Exactly 30% slack.
  EXPECT_TRUE(underPressure(footprint(10 * kMiB, 7 * kMiB), Opts));
  // Just under threshold.
  EXPECT_FALSE(
      underPressure(footprint(10 * kMiB, 7 * kMiB + 64 * 1024), Opts));
  // Fully fragmented.
  EXPECT_TRUE(underPressure(footprint(10 * kMiB, 0), Opts));
}

TEST(PressureMonitorTest, CommittedFloorSuppressesSmallHeaps) {
  const MeshOptions Opts = pressureOptions(10, 8 * kMiB);
  // Fragmented but tiny.
  EXPECT_FALSE(underPressure(footprint(8 * kMiB - 1, 0), Opts));
  // At the floor.
  EXPECT_TRUE(underPressure(footprint(8 * kMiB, 0), Opts));
}

TEST(PressureMonitorTest, ZeroThresholdDisables) {
  const MeshOptions Opts = pressureOptions(0, 0);
  EXPECT_FALSE(underPressure(footprint(100 * kMiB, 0), Opts));
}

TEST(PressureMonitorTest, RssReadableOnLinux) {
  const size_t Rss = readRssBytes();
  // Any live process is resident; require at least one page so a
  // silently-broken parse (returning 0) fails here.
  EXPECT_GE(Rss, kPageSize);
  // And it lands in the sample.
  GlobalHeap Heap(testOptions());
  EXPECT_GE(samplePressure(Heap).RssBytes, kPageSize);
}

TEST(PressureMonitorTest, GlobalHeapAdapterInvariants) {
  MeshOptions Opts;
  Opts.ArenaBytes = size_t{1} << 30;
  Runtime R(Opts);
  std::vector<void *> Kept;
  for (int I = 0; I < 4 * 256; ++I)
    Kept.push_back(R.malloc(64));

  const HeapFootprint F = samplePressure(R.global()).Footprint;
  EXPECT_GT(F.InUseBytes, 0u);
  EXPECT_GT(F.SpanBytes, 0u);
  EXPECT_LE(F.InUseBytes, F.SpanBytes);
  EXPECT_LE(F.SpanBytes, F.CommittedBytes);
  EXPECT_EQ(F.CommittedBytes, R.committedBytes());

  // Freeing most objects through the global path (detached spans) must
  // raise the fragmentation ratio.
  const uint32_t Before = fragPpm(F.CommittedBytes, F.InUseBytes);
  R.localHeap().releaseAll();
  for (size_t I = 0; I < Kept.size(); ++I)
    if (I % 8 != 0)
      R.free(Kept[I]);
  const HeapFootprint After = samplePressure(R.global()).Footprint;
  const uint32_t AfterPpm = fragPpm(After.CommittedBytes, After.InUseBytes);
  EXPECT_GT(AfterPpm, Before);

  for (size_t I = 0; I < Kept.size(); I += 8)
    R.free(Kept[I]);
}

} // namespace
