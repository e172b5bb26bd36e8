//===- Trace.cpp - In-memory span recorder -------------------------------===//

#include "Trace.h"

#include "Stats.h"

#include <ctime>

namespace perfbench {

const char *spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::kRequest:
    return "request";
  case SpanKind::kConsume:
    return "consume";
  case SpanKind::kMalloc:
    return "Runtime::malloc";
  case SpanKind::kFree:
    return "Runtime::free";
  case SpanKind::kMeshNow:
    return "Runtime::meshNow";
  }
  return "?";
}

uint64_t nowNs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

namespace {

/// Self time of every span of one log, plus nesting checks.
std::vector<uint64_t> selfTimes(const SpanLog &Log, SpanSummary &Out) {
  const std::vector<Span> &Spans = Log.spans();
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans) {
    if (S.Parent == kNoParent)
      continue;
    const Span &P = Spans[S.Parent];
    if (S.StartNs < P.StartNs || S.EndNs > P.EndNs || S.EndNs < S.StartNs)
      ++Out.NestingViolations;
    Children[S.Parent].emplace_back(S.StartNs, S.EndNs);
  }
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Self[I] = selfTime(S.StartNs, S.EndNs, Children[I]);
    if (S.EndNs < S.StartNs || Self[I] > S.EndNs - S.StartNs)
      ++Out.NegativeSelf;
  }
  return Self;
}

} // namespace

SpanSummary summarize(const std::vector<const SpanLog *> &Logs) {
  SpanSummary Out;
  for (const SpanLog *Log : Logs) {
    const std::vector<Span> &Spans = Log->spans();
    const std::vector<uint64_t> Self = selfTimes(*Log, Out);
    Out.Spans += Spans.size();
    Out.Dropped += Log->dropped();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const uint64_t Ns = S.EndNs >= S.StartNs ? S.EndNs - S.StartNs : 0;
      switch (S.Kind) {
      case SpanKind::kRequest:
      case SpanKind::kConsume:
        Out.RootNs += Ns;
        Out.RootSelfNs += Self[I];
        Out.Requests += S.Kind == SpanKind::kRequest;
        break;
      case SpanKind::kMalloc:
      case SpanKind::kFree:
        (S.Kind == SpanKind::kMalloc ? Out.MallocNs : Out.FreeNs)
            .push_back(Ns);
        if (S.Parent != kNoParent)
          Out.ChildNs += Ns;
        break;
      case SpanKind::kMeshNow:
        break;
      }
    }
  }
  return Out;
}

bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs) {
  FILE *F = fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  fprintf(F, "thread\tindex\tkind\trequest\tparent\tstart_ns\tend_ns\t"
             "self_ns\n");
  SpanSummary Scratch;
  for (size_t T = 0; T < Logs.size(); ++T) {
    const std::vector<Span> &Spans = Logs[T]->spans();
    const std::vector<uint64_t> Self = selfTimes(*Logs[T], Scratch);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      fprintf(F, "%zu\t%zu\t%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", T, I,
              spanKindName(S.Kind),
              S.Request == kNoRequest ? -1LL
                                      : static_cast<long long>(S.Request),
              S.Parent == kNoParent ? -1LL : static_cast<long long>(S.Parent),
              static_cast<unsigned long long>(S.StartNs),
              static_cast<unsigned long long>(S.EndNs),
              static_cast<unsigned long long>(Self[I]));
    }
  }
  return fclose(F) == 0;
}

} // namespace perfbench
