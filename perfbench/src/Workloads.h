//===- Workloads.h - The benchmark's closed-loop workloads ------*- C++ -*-===//
///
/// \file
/// redis-lru, kv-zipf and xthread-handoff, each driving an instance
/// mesh::Runtime through Runtime::malloc/free/meshNow/mallctl. A run
/// measures end-to-end metrics with tracing off; a traced run (Trace)
/// repeats the workload untraced and then traced, and reports per-layer
/// metrics plus the gap between the two. See spec.json for what each
/// workload is and why it was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scaled-down sizes that finish in about a second (the ctest smokes).
  bool Smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string SpanPath;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0; ///< How many readings the value summarizes.
  std::string Clock;    ///< "wall", "thread-cpu", or "" for non-timings.
  std::string Note;     ///< Why a metric does not apply, if it does not.
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failure counts by cause (all zero on a correct run).
  std::vector<std::pair<std::string, uint64_t>> Failures;
  std::vector<Metric> EndToEnd; ///< Untraced runs only.
  std::vector<Metric> Layer;    ///< Traced runs only.
  std::vector<std::string> Lines; ///< Human-readable extra lines.
};

/// The workload names, in the order the benchmark lists them.
const std::vector<std::string> &workloadNames();

/// Runs one workload; returns false (with a message on stderr) for an
/// unknown workload or a runtime that lacks a leaf the benchmark needs.
bool runWorkload(const RunConfig &Config, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
