//===- MeshQuotaTest.cpp - Pause-bounding mesh quota tests -----------------===//

#include "core/Runtime.h"

#include "TestConfig.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <vector>

namespace mesh {
namespace {

std::vector<void *> fragment(Runtime &R, int Spans) {
  std::vector<void *> Kept;
  std::vector<void *> Toss;
  for (int I = 0; I < Spans * 256; ++I) {
    void *P = R.malloc(16);
    (I % 32 == 0 ? Kept : Toss).push_back(P);
  }
  for (void *P : Toss)
    R.free(P);
  R.localHeap().releaseAll();
  return Kept;
}

TEST(MeshQuotaTest, QuotaBoundsPagesFreedPerPass) {
  MeshOptions Opts = testOptions();
  Opts.MaxMeshesPerPass = 4;
  Runtime R(Opts);
  auto Kept = fragment(R, 64);
  const size_t Freed = R.meshNow();
  EXPECT_LE(Freed, 4 * kPageSize) << "a pass may mesh at most 4 pairs";
  EXPECT_GT(Freed, 0u);
  EXPECT_EQ(R.global().stats().MeshCount.load(), 4u);
  for (void *P : Kept)
    R.free(P);
}

TEST(MeshQuotaTest, SubsequentPassesFinishTheJob) {
  MeshOptions Opts = testOptions();
  Opts.MaxMeshesPerPass = 8;
  Runtime R(Opts);
  auto Kept = fragment(R, 64);
  const size_t Before = R.committedBytes();

  // Unlimited reference heap with the same image.
  MeshOptions RefOpts = testOptions();
  RefOpts.MaxMeshesPerPass = 0;
  Runtime Ref(RefOpts);
  auto RefKept = fragment(Ref, 64);
  for (int Pass = 0; Pass < 64 && Ref.meshNow() > 0; ++Pass)
    ;

  for (int Pass = 0; Pass < 64 && R.meshNow() > 0; ++Pass)
    ;
  EXPECT_LT(R.committedBytes(), Before);
  // Quota only spreads the work; the fixpoint is as good (within one
  // quota of slack for pass-boundary effects).
  EXPECT_LE(R.committedBytes(),
            Ref.committedBytes() + 8 * kPageSize);
  for (void *P : Kept)
    R.free(P);
  for (void *P : RefKept)
    Ref.free(P);
}

TEST(MeshQuotaTest, ZeroMeansUnlimited) {
  MeshOptions Opts = testOptions();
  Opts.MaxMeshesPerPass = 0;
  Runtime R(Opts);
  auto Kept = fragment(R, 64);
  const size_t Freed = R.meshNow();
  EXPECT_GT(Freed, 8 * kPageSize)
      << "an unlimited pass meshes everything it finds";
  for (void *P : Kept)
    R.free(P);
}

TEST(MeshQuotaTest, MallctlRoundTrip) {
  Runtime R(testOptions());
  uint64_t Value = 0;
  size_t Len = sizeof(Value);
  ASSERT_EQ(R.mallctl("mesh.max_per_pass", &Value, &Len, nullptr, 0), 0);
  EXPECT_EQ(Value, 256u) << "default quota";
  uint64_t NewMax = 17;
  ASSERT_EQ(R.mallctl("mesh.max_per_pass", nullptr, nullptr, &NewMax,
                      sizeof(NewMax)),
            0);
  Len = sizeof(Value);
  ASSERT_EQ(R.mallctl("mesh.max_per_pass", &Value, &Len, nullptr, 0), 0);
  EXPECT_EQ(Value, 17u);

  // Out-of-range writes are refused with EINVAL and leave the old value
  // in place: no silent truncation to 32 bits (2^32 would read back as
  // 0, i.e. unlimited), no zero probe budget, nothing past MESH_PROBES'
  // own limit.
  auto Read = [&](const char *Name) {
    uint64_t V = 0;
    size_t L = sizeof(V);
    EXPECT_EQ(R.mallctl(Name, &V, &L, nullptr, 0), 0) << Name;
    return V;
  };
  auto Write = [&](const char *Name, uint64_t V) {
    return R.mallctl(Name, nullptr, nullptr, &V, sizeof(V));
  };
  EXPECT_EQ(Write("mesh.max_per_pass", uint64_t{1} << 32), EINVAL);
  EXPECT_EQ(Read("mesh.max_per_pass"), 17u);
  EXPECT_EQ(Write("mesh.max_per_pass", UINT32_MAX), 0);
  EXPECT_EQ(Read("mesh.max_per_pass"), UINT32_MAX);

  const uint64_t Probes = Read("mesh.probes");
  EXPECT_EQ(Probes, kDefaultMeshProbes);
  EXPECT_EQ(Write("mesh.probes", 0), EINVAL);
  EXPECT_EQ(Write("mesh.probes", (uint64_t{1} << 20) + 1), EINVAL);
  EXPECT_EQ(Write("mesh.probes", (uint64_t{1} << 32) + 64), EINVAL);
  EXPECT_EQ(Read("mesh.probes"), Probes);
  EXPECT_EQ(Write("mesh.probes", uint64_t{1} << 20), 0);
  EXPECT_EQ(Read("mesh.probes"), uint64_t{1} << 20);
  EXPECT_EQ(Write("mesh.probes", 1), 0);
  EXPECT_EQ(Read("mesh.probes"), 1u);
}

TEST(MeshQuotaTest, NewMallctlStats) {
  Runtime R(testOptions());
  auto Kept = fragment(R, 16);
  R.meshNow();
  uint64_t Copied = 0, Passes = 0, Dirty = 0;
  size_t Len = sizeof(uint64_t);
  ASSERT_EQ(R.mallctl("stats.bytes_copied", &Copied, &Len, nullptr, 0), 0);
  EXPECT_GT(Copied, 0u);
  Len = sizeof(uint64_t);
  ASSERT_EQ(R.mallctl("stats.mesh_passes", &Passes, &Len, nullptr, 0), 0);
  EXPECT_EQ(Passes, 1u);
  Len = sizeof(uint64_t);
  ASSERT_EQ(R.mallctl("stats.dirty_bytes", &Dirty, &Len, nullptr, 0), 0);
  uint64_t Flushed = 0;
  Len = sizeof(uint64_t);
  ASSERT_EQ(R.mallctl("heap.flush_dirty", &Flushed, &Len, nullptr, 0), 0);
  for (void *P : Kept)
    R.free(P);
}

} // namespace
} // namespace mesh
