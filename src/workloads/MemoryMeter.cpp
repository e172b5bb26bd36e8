//===- MemoryMeter.cpp - RSS time-series sampling -----------------------------===//

#include "workloads/MemoryMeter.h"

#include <cassert>
#include <cstdio>
#include <ctime>
#include <unistd.h>

namespace mesh {

static uint64_t nowNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

MemoryMeter::MemoryMeter(HeapBackend &B, uint64_t Cadence)
    : Backend(B), OpsPerSample(Cadence == 0 ? 1 : Cadence),
      StartNs(nowNs()) {
  sampleNow();
}

void MemoryMeter::reserveForOps(uint64_t ExpectedOps, size_t ExtraSamples) {
  const size_t Expected =
      static_cast<size_t>(ExpectedOps / OpsPerSample) + ExtraSamples;
  Samples.reserve(Samples.size() + Expected);
  Reserved = true;
}

void MemoryMeter::sampleNow() {
  Backend.tick();
  // A regrowth here would allocate from (and be measured by) the heap
  // under test; reserveForOps sizes the series so it never happens.
  // Harnesses that under-estimated their op count must widen the
  // reservation, not silently absorb the perturbation.
  assert((!Reserved || Samples.size() < Samples.capacity()) &&
         "sample series reallocated inside the measured window");
  Samples.push_back(Sample{Ops, (nowNs() - StartNs) * 1e-9,
                           Backend.committedBytes()});
}

double MemoryMeter::meanCommittedBytes() const {
  if (Samples.empty())
    return 0.0;
  double Sum = 0;
  for (const Sample &S : Samples)
    Sum += static_cast<double>(S.CommittedBytes);
  return Sum / static_cast<double>(Samples.size());
}

size_t MemoryMeter::peakCommittedBytes() const {
  size_t Peak = 0;
  for (const Sample &S : Samples)
    if (S.CommittedBytes > Peak)
      Peak = S.CommittedBytes;
  return Peak;
}

void MemoryMeter::printSeries(const char *Label) const {
  // Keep ordering with anything already printf'd, then bypass stdio:
  // its output buffer is heap-allocated on first flush, which would
  // land inside the measured window when a series is dumped mid-run.
  fflush(stdout);
  for (const Sample &S : Samples) {
    char Row[192];
    const int Len = snprintf(
        Row, sizeof(Row), "series\t%s\t%llu\t%.4f\t%.2f\n", Label,
        static_cast<unsigned long long>(S.OpIndex), S.ElapsedSeconds,
        static_cast<double>(S.CommittedBytes) / (1024.0 * 1024.0));
    if (Len <= 0)
      continue;
    size_t Off = 0;
    while (Off < static_cast<size_t>(Len)) {
      const ssize_t Wrote =
          write(STDOUT_FILENO, Row + Off, static_cast<size_t>(Len) - Off);
      if (Wrote <= 0)
        return;
      Off += static_cast<size_t>(Wrote);
    }
  }
}

} // namespace mesh
