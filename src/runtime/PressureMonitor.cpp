//===- PressureMonitor.cpp - Memory-pressure policy and sampling -----------===//

#include "runtime/PressureMonitor.h"

#include "core/GlobalHeap.h"

#include <cstdlib>
#include <fcntl.h>
#include <unistd.h>

namespace mesh {

uint32_t fragPpm(size_t CommittedBytes, size_t InUseBytes) {
  if (CommittedBytes == 0)
    return 0;
  if (InUseBytes >= CommittedBytes)
    return 0;
  const size_t Slack = CommittedBytes - InUseBytes;
  // Committed can exceed 2^44 only for absurd heaps; the intermediate
  // product fits u64 for anything below 16 TiB committed.
  return static_cast<uint32_t>((Slack * 1000000ULL) / CommittedBytes);
}

bool underPressure(const HeapFootprint &F, const MeshOptions &Opts) {
  if (Opts.PressureFragThresholdPct == 0)
    return false;
  if (F.CommittedBytes < Opts.PressureMinCommittedBytes)
    return false;
  return fragPpm(F.CommittedBytes, F.InUseBytes) >=
         Opts.PressureFragThresholdPct * 10000u;
}

size_t readRssBytes() {
  // /proc/self/statm: "size resident shared text lib data dt", all in
  // pages. Raw open/read/parse — no stdio, no allocation (this runs
  // inside the allocator's mallctl).
  const int Fd = open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return 0;
  char Buf[128];
  const ssize_t N = read(Fd, Buf, sizeof(Buf) - 1);
  close(Fd);
  if (N <= 0)
    return 0;
  Buf[N] = '\0';
  // Skip the first field (total program size), parse the second.
  const char *P = Buf;
  while (*P != '\0' && *P != ' ')
    ++P;
  if (*P != ' ')
    return 0;
  char *End = nullptr;
  const unsigned long long ResidentPages = strtoull(P + 1, &End, 10);
  if (End == P + 1)
    return 0;
  return static_cast<size_t>(ResidentPages) * kPageSize;
}

PressureSample samplePressure(const GlobalHeap &Heap) {
  PressureSample S;
  S.Footprint = Heap.sampleFootprint();
  S.RssBytes = readRssBytes();
  S.FragPpm = fragPpm(S.Footprint.CommittedBytes, S.Footprint.InUseBytes);
  return S;
}

} // namespace mesh
