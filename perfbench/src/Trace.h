//===- Trace.h - In-memory span recorder ------------------------*- C++ -*-===//
///
/// \file
/// The traced run's spans, recorded from the benchmark's own code around
/// its calls into the runtime: a request span per sampled request, a
/// child span per Runtime::malloc/free that request makes, and a root
/// span per Runtime::meshNow call. Each thread owns one SpanLog, so
/// recording takes no lock; logs are merged and written out when the
/// run ends. Storage is reserved up front from the system allocator (not
/// the heap under test) and recording stops, counting drops, when full.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kRequest, ///< One client request (KV op, or producing a message).
  kConsume, ///< Consumer side of a message: verify + free.
  kMalloc,  ///< Runtime::malloc
  kFree,    ///< Runtime::free
  kMeshNow, ///< Runtime::meshNow (a compaction pass the client waits on)
};

const char *spanKindName(SpanKind K);

constexpr uint32_t kNoParent = UINT32_MAX;
constexpr uint64_t kNoRequest = UINT64_MAX;

struct Span {
  uint64_t StartNs;
  uint64_t EndNs;
  uint64_t Request; ///< Request id shared by a request's spans.
  uint32_t Parent;  ///< Index in the same log, or kNoParent.
  SpanKind Kind;
};

uint64_t nowNs();

class SpanLog {
public:
  explicit SpanLog(size_t Capacity) { Spans.reserve(Capacity); }

  /// Opens a span and returns its index (kNoParent when the log is
  /// full; closing that index is a no-op).
  uint32_t open(SpanKind Kind, uint64_t Request, uint32_t Parent) {
    if (Spans.size() == Spans.capacity()) {
      ++Dropped;
      return kNoParent;
    }
    Spans.push_back(Span{nowNs(), 0, Request, Parent, Kind});
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  void close(uint32_t Index) {
    if (Index != kNoParent)
      Spans[Index].EndNs = nowNs();
  }

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t dropped() const { return Dropped; }

private:
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
};

/// What the span tree says, per kind: durations and self times.
struct SpanSummary {
  std::vector<uint64_t> MallocNs, FreeNs;
  uint64_t RootNs = 0;      ///< Sum of request/consume span durations.
  uint64_t RootSelfNs = 0;  ///< Their self time (outside malloc/free).
  uint64_t ChildNs = 0;     ///< Sum of malloc/free spans under them.
  uint64_t Requests = 0;
  uint64_t NestingViolations = 0; ///< Children outside their parent.
  uint64_t NegativeSelf = 0;      ///< Self time above the duration.
  uint64_t Spans = 0;
  uint64_t Dropped = 0;
};

/// Checks nesting and computes self times over every log.
SpanSummary summarize(const std::vector<const SpanLog *> &Logs);

/// Writes every span as one tab-separated line (thread, index, kind,
/// request, parent, start, end, self); returns false on an I/O error.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
