//===- ArithmeticTest.cpp - Tests for the benchmark's own arithmetic ----===//
///
/// The numbers the benchmark reports are only as good as the arithmetic
/// that derives them: the tail-percentile choice, span self time, the
/// cadence-sampled heap mean, and log2-histogram quantiles. Each check
/// here stays on in every build type (no assert).
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #Cond); \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

std::vector<uint64_t> iota(size_t N) {
  std::vector<uint64_t> V(N);
  std::iota(V.begin(), V.end(), 1); // 1..N
  return V;
}

void testPercentile() {
  const std::vector<uint64_t> V = iota(100);
  size_t Rank = 0;
  CHECK(percentileSorted(V, 50, &Rank) == 50 && Rank == 50);
  CHECK(percentileSorted(V, 99, &Rank) == 99 && Rank == 99);
  CHECK(percentileSorted(V, 100) == 100);
  CHECK(percentileSorted(V, 0.1) == 1);
  CHECK(percentileSorted(std::vector<uint64_t>{}, 50) == 0);
  CHECK(percentileSorted(std::vector<uint64_t>{7}, 99) == 7);
  CHECK(percentileSorted(std::vector<double>{0.5, 1.5}, 50) == 0.5);
}

void testTailChoice() {
  // 1000 samples: p99 has rank 990 and exactly 10 beyond it; p99.9
  // (rank 999) has only 1, so p99 is the deepest resolvable tail.
  TailPercentile T = highestResolvedPercentile(iota(1000));
  CHECK(T.Pct == 99 && T.Value == 990 && T.Beyond == 10);
  // 999 samples: p99 has rank 990 and only 9 beyond, so p90 it is.
  T = highestResolvedPercentile(iota(999));
  CHECK(T.Pct == 90 && T.Beyond >= 10);
  // 10000 samples: p99.9 has rank 9990 and 10 beyond.
  T = highestResolvedPercentile(iota(10000));
  CHECK(T.Pct == 99.9 && T.Value == 9990 && T.Beyond == 10);
  // Too few samples for any tail: the median, flagged by Beyond < 10.
  T = highestResolvedPercentile(iota(15));
  CHECK(T.Pct == 50 && T.Beyond == 7);
}

void testSelfTime() {
  // No children: all self.
  CHECK(selfTime(100, 200, {}) == 100);
  // Disjoint children.
  CHECK(selfTime(0, 100, {{10, 20}, {50, 70}}) == 70);
  // Overlapping children and one sticking out of the parent: the union
  // of the clipped intervals is [10,40) + [90,100) = 40.
  CHECK(selfTime(0, 100, {{20, 40}, {10, 30}, {90, 120}}) == 60);
  // A child covering the whole parent leaves zero, never negative.
  CHECK(selfTime(10, 20, {{0, 50}}) == 0);
  // A degenerate parent.
  CHECK(selfTime(20, 10, {{12, 15}}) == 0);
}

void testSpanTree() {
  // A request with a nested malloc and free, written through the same
  // recorder the traced run uses, then summarized.
  SpanLog Log(16);
  const uint32_t Req = Log.open(SpanKind::kRequest, 7, kNoParent);
  const uint32_t M = Log.open(SpanKind::kMalloc, 7, Req);
  Log.close(M);
  const uint32_t F = Log.open(SpanKind::kFree, 7, Req);
  Log.close(F);
  Log.close(Req);
  const uint32_t Mesh = Log.open(SpanKind::kMeshNow, kNoRequest, kNoParent);
  Log.close(Mesh);
  const SpanSummary S = summarize({&Log});
  CHECK(S.Spans == 4 && S.Requests == 1);
  CHECK(S.NestingViolations == 0 && S.NegativeSelf == 0);
  CHECK(S.MallocNs.size() == 1 && S.FreeNs.size() == 1);
  CHECK(S.RootSelfNs + S.ChildNs == S.RootNs);
  // A full log drops, and counts what it dropped.
  SpanLog Tiny(1);
  CHECK(Tiny.open(SpanKind::kRequest, 1, kNoParent) == 0);
  CHECK(Tiny.open(SpanKind::kRequest, 2, kNoParent) == kNoParent);
  Tiny.close(kNoParent);
  CHECK(Tiny.dropped() == 1);
}

void testCadenceSampler() {
  // Readings are taken before ops 0, 4, 8, ...; the reader returns the
  // op index it was called at, so the mean is that of 0, 4, ..., 36.
  uint64_t Op = 0;
  auto Read = [&Op] { return Op; };
  CadenceSampler<decltype(Read)> S(4, Read);
  S.reserve(16);
  for (Op = 0; Op < 38; ++Op)
    S.onOp();
  CHECK(S.ops() == 38);
  CHECK(S.readings().size() == 10); // ceil(38 / 4)
  CHECK(S.readings().front() == 0 && S.readings().back() == 36);
  CHECK(S.mean() == 18.0);
  CHECK(S.peak() == 36);
  CadenceSampler<decltype(Read)> Empty(4, Read);
  CHECK(Empty.mean() == 0 && Empty.peak() == 0);
}

void testHistQuantile() {
  uint64_t B[64] = {};
  CHECK(histQuantile(B, 64, 0.5) == 0);
  // 10 zeros and 10 values in [1024, 2048): the median is the zero
  // bucket, the p99 the midpoint 1536 of bucket 11.
  B[0] = 10;
  B[11] = 10;
  CHECK(histQuantile(B, 64, 0.5) == 0);
  CHECK(histQuantile(B, 64, 0.99) == 1536);
  CHECK(histCount(B, 64) == 20);
}

void testMedian() {
  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

} // namespace

int main() {
  testPercentile();
  testTailChoice();
  testSelfTime();
  testSpanTree();
  testCadenceSampler();
  testHistQuantile();
  testMedian();
  if (Failures != 0) {
    fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  printf("arithmetic: all checks passed\n");
  return 0;
}
