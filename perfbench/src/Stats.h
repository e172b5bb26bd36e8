//===- Stats.h - The benchmark's own arithmetic -----------------*- C++ -*-===//
///
/// \file
/// Pure functions the benchmark reports through, kept apart so the
/// tests in tests/ArithmeticTest.cpp can pin them: nearest-rank
/// percentiles, the choice of the highest percentile that still has
/// enough samples beyond it, a span's self time, log2-histogram
/// quantiles, and the op-cadence heap sampler.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0 < P <= 100) of ascending \p Sorted:
/// the smallest sample with at least P% of the samples at or below it.
/// Returns its 1-based rank through \p Rank when given. 0 when empty.
template <typename T>
double percentileSorted(const std::vector<T> &Sorted, double P,
                        size_t *Rank = nullptr) {
  if (Sorted.empty())
    return 0;
  auto R = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size()) - 1e-9));
  R = std::min(std::max<size_t>(R, 1), Sorted.size());
  if (Rank != nullptr)
    *Rank = R;
  return static_cast<double>(Sorted[R - 1]);
}

struct TailPercentile {
  double Pct = 0;   ///< The percentile chosen (50, 90, 99, 99.9, ...).
  double Value = 0; ///< Its nearest-rank value.
  size_t Beyond = 0; ///< Samples ranked strictly above it.
};

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that keeps
/// at least \p MinBeyond samples beyond its rank: the deepest tail the
/// sample count can resolve. Falls back to the median when even that
/// has too few samples beyond it.
template <typename T>
TailPercentile highestResolvedPercentile(const std::vector<T> &Sorted,
                                         size_t MinBeyond = 10) {
  static const double Ladder[] = {50,    90,     99,      99.9,
                                  99.99, 99.999, 99.9999};
  TailPercentile Best;
  for (double P : Ladder) {
    size_t Rank = 0;
    const double V = percentileSorted(Sorted, P, &Rank);
    const size_t Beyond = Sorted.size() - Rank;
    if (Beyond < MinBeyond && P != Ladder[0])
      break;
    Best = TailPercentile{P, V, Beyond};
  }
  return Best;
}

/// Self time of a span [\p Start, \p End): its duration minus the part
/// of it that its direct children cover. Children may overlap each
/// other or stick out of the parent; only the union of their
/// intersections with the parent is subtracted, so the result is never
/// negative.
inline uint64_t selfTime(uint64_t Start, uint64_t End,
                         std::vector<std::pair<uint64_t, uint64_t>> Children) {
  if (End <= Start)
    return 0;
  std::sort(Children.begin(), Children.end());
  uint64_t Covered = 0;
  uint64_t Cursor = Start;
  for (auto [CStart, CEnd] : Children) {
    CStart = std::max(CStart, Cursor);
    CEnd = std::min(CEnd, End);
    if (CEnd <= CStart)
      continue;
    Covered += CEnd - CStart;
    Cursor = CEnd;
  }
  return (End - Start) - Covered;
}

/// Quantile \p Q of a log2-bucketed histogram (bucket 0 holds zeros,
/// bucket b >= 1 holds [2^(b-1), 2^b)), reported as the arithmetic
/// midpoint 1.5 * 2^(b-1) of the bucket it falls in — the convention of
/// the library's own readers. Good to a factor of two only.
inline double histQuantile(const uint64_t *Buckets, size_t NumBuckets,
                           double Q) {
  uint64_t Total = 0;
  for (size_t B = 0; B < NumBuckets; ++B)
    Total += Buckets[B];
  if (Total == 0)
    return 0;
  const double Target = Q * static_cast<double>(Total);
  uint64_t Cum = 0;
  size_t B = 0;
  for (; B + 1 < NumBuckets; ++B) {
    Cum += Buckets[B];
    if (static_cast<double>(Cum) >= Target)
      break;
  }
  return B == 0 ? 0 : 1.5 * std::ldexp(1.0, static_cast<int>(B) - 1);
}

inline uint64_t histCount(const uint64_t *Buckets, size_t NumBuckets) {
  uint64_t Total = 0;
  for (size_t B = 0; B < NumBuckets; ++B)
    Total += Buckets[B];
  return Total;
}

/// Samples a reading every \p Every operations, starting with op 0 (the
/// start of the window), so a window of N ops holds ceil(N / Every)
/// readings spaced evenly in work rather than in time. Storage is
/// reserved up front and never grows inside the window.
template <typename ReadFn> class CadenceSampler {
public:
  CadenceSampler(uint64_t Every, ReadFn Read) : Every(Every), Read(Read) {}

  void reserve(size_t N) { Readings.reserve(N); }

  /// Call once per operation, before the operation runs.
  void onOp() {
    if (Ops++ % Every == 0)
      Readings.push_back(Read());
  }

  const std::vector<uint64_t> &readings() const { return Readings; }
  uint64_t ops() const { return Ops; }

  double mean() const {
    if (Readings.empty())
      return 0;
    double Sum = 0;
    for (uint64_t R : Readings)
      Sum += static_cast<double>(R);
    return Sum / static_cast<double>(Readings.size());
  }
  uint64_t peak() const {
    return Readings.empty() ? 0
                            : *std::max_element(Readings.begin(),
                                                Readings.end());
  }

private:
  uint64_t Every;
  ReadFn Read;
  uint64_t Ops = 0;
  std::vector<uint64_t> Readings;
};

/// Median of a small set of per-episode values (mean of the middle two
/// for an even count). 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 == 1 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
