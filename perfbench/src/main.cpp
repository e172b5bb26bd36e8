//===- main.cpp - perfbench command line ---------------------------------===//
///
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--smoke] [--spans <path>]
///
/// Runs one workload and prints one JSON object on the last line of
/// stdout: the failure accounting, and the end-to-end metrics (--trace 0)
/// or the per-layer metrics (--trace 1), each with its unit, sample
/// count and clock. run.py turns it into the benchmark's result line.
/// Exit status: 0 on a correct run, 1 when any operation failed, 2 on a
/// usage error or a runtime the benchmark cannot read.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

void usage() {
  fprintf(stderr, "usage: perfbench --workload <");
  const char *Sep = "";
  for (const std::string &W : workloadNames()) {
    fprintf(stderr, "%s%s", Sep, W.c_str());
    Sep = "|";
  }
  fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> [--smoke] "
                  "[--spans <path>]\n");
  exit(2);
}

/// JSON string body; metric names, units and notes are plain ASCII.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metrics(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    const Metric &M = Ms[I];
    Out += (I ? ", " : "") + quoted(M.Name) + ": {\"value\": " +
           number(M.Value) + ", \"unit\": " + quoted(M.Unit) +
           ", \"samples\": " + std::to_string(M.Samples);
    if (!M.Clock.empty())
      Out += ", \"clock\": " + quoted(M.Clock);
    if (!M.Note.empty())
      Out += ", \"note\": " + quoted(M.Note);
    Out += "}";
  }
  return Out + "}";
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (A == "--workload") {
      C.Workload = Next();
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = strtoull(Next(), nullptr, 10);
    } else if (A == "--seconds") {
      C.Seconds = strtod(Next(), nullptr);
    } else if (A == "--trace") {
      C.Trace = strcmp(Next(), "0") != 0;
    } else if (A == "--spans") {
      C.SpanPath = Next();
    } else if (A == "--smoke") {
      C.Smoke = true;
    } else {
      usage();
    }
  }
  if (!HaveWorkload || !(C.Seconds > 0) || C.Seconds > 600)
    usage();

  Report R;
  if (!runWorkload(C, R))
    return 2;
  for (const std::string &L : R.Lines)
    printf("%s\n", L.c_str());
  std::string Failures = "{";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    Failures += (I ? ", " : "") + quoted(R.Failures[I].first) + ": " +
                std::to_string(R.Failures[I].second);
  Failures += "}";
  printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
         "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
         "\"metrics\": %s}\n",
         quoted(C.Workload).c_str(), static_cast<unsigned long long>(C.Seed),
         C.Trace ? 1 : 0, static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed), Failures.c_str(),
         metrics(C.Trace ? R.Layer : R.EndToEnd).c_str());
  return R.Failed == 0 ? 0 : 1;
}
