//===- MemoryMeter.h - RSS time-series sampling -----------------*- C++ -*-===//
///
/// \file
/// The mstat stand-in (paper Section 6.1): samples an allocator's
/// physical footprint on a fixed cadence and reports the time series
/// plus the summary statistics the paper quotes (mean and peak heap
/// size over a run). Sampling is driven by workload progress (operation
/// count) rather than wall time, so runs are reproducible; each sample
/// also records elapsed wall time for the latency-flavoured results.
///
/// The meter measures the very heap it allocates its sample series
/// from, so harnesses must call reserveForOps() before the measured
/// window: a vector regrowth mid-run would bill the meter's own
/// allocation (and the stale half-size buffer it strands until the
/// next sample) to the allocator under test. Debug builds assert that
/// no reserved series ever reallocates; printSeries() bypasses stdio
/// entirely for the same reason.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_WORKLOADS_MEMORYMETER_H
#define MESH_WORKLOADS_MEMORYMETER_H

#include "baseline/HeapBackend.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mesh {

class MemoryMeter {
public:
  struct Sample {
    uint64_t OpIndex;
    double ElapsedSeconds;
    size_t CommittedBytes;
  };

  /// \p Backend is sampled every \p OpsPerSample operations; tick() is
  /// invoked on the backend at each sample (the allocator's periodic
  /// maintenance hook).
  MemoryMeter(HeapBackend &Backend, uint64_t OpsPerSample);

  /// Pre-sizes the sample series for a run of \p ExpectedOps recorded
  /// operations (plus \p ExtraSamples slack for out-of-cadence
  /// sampleNow() calls — idle rounds, phase boundaries). Call before
  /// the measured window starts; from then on Debug builds assert that
  /// sampling never reallocates, so the RSS series cannot include the
  /// meter's own allocations.
  void reserveForOps(uint64_t ExpectedOps, size_t ExtraSamples = 64);

  /// True once reserveForOps has run (the no-reallocation assertion is
  /// armed).
  bool reserved() const { return Reserved; }

  /// Advances the operation counter; samples when the cadence is hit.
  void recordOp() {
    if (++Ops % OpsPerSample == 0)
      sampleNow();
  }

  /// Bulk-advances the operation counter without cadence sampling:
  /// soak coordinators count worker-thread ops in aggregate and sample
  /// on their own schedule via sampleNow().
  void advanceOps(uint64_t N) { Ops += N; }

  /// Takes an immediate sample regardless of cadence.
  void sampleNow();

  const std::vector<Sample> &samples() const { return Samples; }

  double meanCommittedBytes() const;
  size_t peakCommittedBytes() const;

  /// Prints "series <label> <op> <seconds> <MiB>" rows for plotting.
  /// Formats into a stack buffer and write(2)s past stdio, so dumping
  /// a series mid-run cannot grow stdout's heap buffer inside the
  /// measured window.
  void printSeries(const char *Label) const;

private:
  HeapBackend &Backend;
  uint64_t OpsPerSample;
  uint64_t Ops = 0;
  uint64_t StartNs;
  bool Reserved = false;
  std::vector<Sample> Samples;
};

} // namespace mesh

#endif // MESH_WORKLOADS_MEMORYMETER_H
