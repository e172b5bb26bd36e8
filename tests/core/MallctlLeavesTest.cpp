//===- MallctlLeavesTest.cpp - mallctl registry/docs sync ------------------===//
///
/// The mallctl name space is documented in one place users see
/// (api/mesh/mesh.h) and implemented in another (core/Runtime.cpp).
/// Those drifted once already — leaves shipped that the header never
/// mentioned. This suite pins them together mechanically:
///
///   - version.leaves enumerates the registry (size query + read);
///   - every enumerated leaf actually resolves (!= ENOENT);
///   - the set of quoted dotted names in mesh.h's doc comment equals
///     the registry, both directions (MESH_API_HEADER is injected by
///     the build so the test reads the header source itself);
///   - the faults.reset and telemetry.reset write leaves really zero
///     their counter families, enabling per-phase delta assertions;
///   - every leaf answers the same return code for each call shape
///     (u64 read, null length, short length, odd-sized write), and the
///     derived totals agree with their per-origin parts.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "TestConfig.h"
#include "support/Sys.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mesh {
namespace {

std::vector<std::string> enumerateLeaves(Runtime &R) {
  size_t Needed = 0;
  EXPECT_EQ(R.mallctl("version.leaves", nullptr, &Needed, nullptr, 0), 0);
  EXPECT_GT(Needed, 0u);
  std::string Buf(Needed, '\0');
  size_t Len = Needed;
  EXPECT_EQ(R.mallctl("version.leaves", Buf.data(), &Len, nullptr, 0), 0);
  EXPECT_EQ(Len, Needed);
  std::vector<std::string> Leaves;
  std::string Cur;
  for (size_t I = 0; I < Buf.size() && Buf[I] != '\0'; ++I) {
    if (Buf[I] == '\n') {
      if (!Cur.empty())
        Leaves.push_back(Cur);
      Cur.clear();
    } else {
      Cur += Buf[I];
    }
  }
  if (!Cur.empty())
    Leaves.push_back(Cur);
  return Leaves;
}

/// Every "quoted.dotted_name" in the public header's doc text: the
/// documented mallctl surface.
std::set<std::string> documentedLeaves() {
  std::set<std::string> Names;
  FILE *F = fopen(MESH_API_HEADER, "r");
  EXPECT_NE(F, nullptr) << "cannot open " << MESH_API_HEADER;
  if (F == nullptr)
    return Names;
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  fclose(F);

  size_t Pos = 0;
  while ((Pos = Text.find('"', Pos)) != std::string::npos) {
    const size_t End = Text.find('"', Pos + 1);
    if (End == std::string::npos)
      break;
    const std::string Token = Text.substr(Pos + 1, End - Pos - 1);
    const bool Dotted =
        Token.find('.') != std::string::npos &&
        std::all_of(Token.begin(), Token.end(), [](unsigned char C) {
          return std::islower(C) || std::isdigit(C) || C == '_' || C == '.';
        });
    if (Dotted)
      Names.insert(Token);
    Pos = End + 1;
  }
  return Names;
}

TEST(MallctlLeaves, EnumerationIsNonEmptyAndSorted) {
  Runtime R(testOptions());
  const std::vector<std::string> Leaves = enumerateLeaves(R);
  ASSERT_FALSE(Leaves.empty());
  const std::set<std::string> Unique(Leaves.begin(), Leaves.end());
  EXPECT_EQ(Unique.size(), Leaves.size()) << "duplicate leaf registered";
  // Spot anchors across the families.
  EXPECT_TRUE(Unique.count("mesh.enabled"));
  EXPECT_TRUE(Unique.count("stats.committed_bytes"));
  EXPECT_TRUE(Unique.count("faults.reset"));
  EXPECT_TRUE(Unique.count("telemetry.hist.mesh_pass"));
  EXPECT_TRUE(Unique.count("version.leaves"));
}

TEST(MallctlLeaves, SizeQueryContract) {
  Runtime R(testOptions());
  size_t Needed = 0;
  ASSERT_EQ(R.mallctl("version.leaves", nullptr, &Needed, nullptr, 0), 0);
  // A too-small buffer is rejected, not truncated.
  std::string Buf(Needed - 1, '\0');
  size_t Len = Buf.size();
  EXPECT_EQ(R.mallctl("version.leaves", Buf.data(), &Len, nullptr, 0),
            EINVAL);
  EXPECT_EQ(R.mallctl("version.leaves", nullptr, nullptr, nullptr, 0),
            EINVAL);
}

TEST(MallctlLeaves, EveryRegisteredLeafResolves) {
  Runtime R(testOptions());
  for (const std::string &Leaf : enumerateLeaves(R)) {
    // A plain u64 read attempt: pure-write leaves may answer EINVAL
    // (wrong shape), but only an unregistered name answers ENOENT.
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    const int Rc = R.mallctl(Leaf.c_str(), &Value, &Len, nullptr, 0);
    EXPECT_NE(Rc, ENOENT) << Leaf << " is enumerated but unresolvable";
  }
}

TEST(MallctlLeaves, HeaderDocsMatchRegistry) {
  Runtime R(testOptions());
  const std::vector<std::string> Registered = enumerateLeaves(R);
  const std::set<std::string> RegisteredSet(Registered.begin(),
                                            Registered.end());
  const std::set<std::string> Documented = documentedLeaves();
  ASSERT_FALSE(Documented.empty());
  for (const std::string &Name : Documented)
    EXPECT_TRUE(RegisteredSet.count(Name))
        << "mesh.h documents '" << Name
        << "' but Runtime::mallctl does not register it";
  for (const std::string &Name : RegisteredSet)
    EXPECT_TRUE(Documented.count(Name))
        << "Runtime::mallctl registers '" << Name
        << "' but mesh.h does not document it";
}

TEST(MallctlLeaves, FaultsResetZeroesTheFamily) {
  sys::clearFaults();
  Runtime R(testOptions());
  auto Read = [&](const char *Name) {
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), 0) << Name;
    return Value;
  };
  // A total commit-refusal storm: every large malloc degrades to a
  // clean nullptr and ticks injected + oom_returns.
  ASSERT_TRUE(sys::configureFaults("commit:ENOMEM:every=1"));
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(R.malloc(size_t{1} << 20), nullptr);
  sys::clearFaults();
  EXPECT_GT(Read("faults.injected"), 0u);
  EXPECT_GT(Read("faults.oom_returns"), 0u);

  ASSERT_EQ(R.mallctl("faults.reset", nullptr, nullptr, nullptr, 0), 0);
  EXPECT_EQ(Read("faults.injected"), 0u);
  EXPECT_EQ(Read("faults.retried"), 0u);
  EXPECT_EQ(Read("faults.oom_returns"), 0u);
  EXPECT_EQ(Read("faults.mesh_rollbacks"), 0u);
  EXPECT_EQ(Read("faults.punch_fallbacks"), 0u);
  // And the heap still serves requests after the reset.
  void *P = R.malloc(size_t{1} << 20);
  EXPECT_NE(P, nullptr);
  R.free(P);
}

TEST(MallctlLeaves, TelemetryResetAndRoundTrip) {
  Runtime R(testOptions());
  auto Read = [&](const char *Name) {
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), 0) << Name;
    return Value;
  };
  bool On = true;
  ASSERT_EQ(R.mallctl("telemetry.enabled", nullptr, nullptr, &On,
                      sizeof(On)),
            0);
  EXPECT_EQ(Read("telemetry.enabled"), 1u);
  R.meshNow(); // records at least the kMeshPass event + histogram
  EXPECT_GT(Read("telemetry.events"), 0u);
  uint64_t Buckets[telemetry::kHistBuckets] = {};
  size_t Len = sizeof(Buckets);
  ASSERT_EQ(R.mallctl("telemetry.hist.mesh_pass", Buckets, &Len, nullptr,
                      0),
            0);
  EXPECT_EQ(Len, sizeof(Buckets));
  uint64_t Samples = 0;
  for (uint64_t B : Buckets)
    Samples += B;
  EXPECT_GT(Samples, 0u);

  ASSERT_EQ(R.mallctl("telemetry.reset", nullptr, nullptr, nullptr, 0), 0);
  EXPECT_EQ(Read("telemetry.events"), 0u);
  EXPECT_EQ(Read("telemetry.overflow_events"), 0u);
  Len = sizeof(Buckets);
  ASSERT_EQ(R.mallctl("telemetry.hist.mesh_pass", Buckets, &Len, nullptr,
                      0),
            0);
  for (uint64_t B : Buckets)
    EXPECT_EQ(B, 0u);

  // Unknown histogram names are ENOENT, not a crash or silent zero.
  Len = sizeof(Buckets);
  EXPECT_EQ(R.mallctl("telemetry.hist.bogus", Buckets, &Len, nullptr, 0),
            ENOENT);
  On = false;
  ASSERT_EQ(R.mallctl("telemetry.enabled", nullptr, nullptr, &On,
                      sizeof(On)),
            0);
  EXPECT_EQ(Read("telemetry.enabled"), 0u);
}

/// Return codes of one leaf for the four call shapes of CallContract.
struct Contract {
  int Read;    ///< 8-byte OldP, no NewP.
  int NullLen; ///< OldP but a null OldLenP.
  int Short;   ///< *OldLenP = 4.
  int Write3;  ///< 8-byte OldP plus a 3-byte NewP.
};

TEST(MallctlLeaves, CallContract) {
  Runtime R(testOptions());
  // A read-only u64 leaf ignores NewP and answers the read.
  constexpr Contract kReadOnly = {0, EINVAL, EINVAL, 0};
  // A writable leaf takes the write and rejects its size.
  constexpr Contract kWritable = {0, EINVAL, EINVAL, EINVAL};
  // Leaves with their own buffer shape reject every u64-shaped call,
  // and the two resets accept any call.
  constexpr Contract kOwnShape = {EINVAL, EINVAL, EINVAL, EINVAL};
  constexpr Contract kReset = {0, 0, 0, 0};
  const std::map<std::string, Contract> Special = {
      {"mesh.enabled", kWritable},
      {"mesh.period_ms", kWritable},
      {"mesh.probes", kWritable},
      {"mesh.max_per_pass", kWritable},
      {"telemetry.enabled", kWritable},
      {"telemetry.ring_size", kWritable},
      {"telemetry.dump", kOwnShape},
      {"telemetry.hist.mesh_pass", kOwnShape},
      {"telemetry.hist.mesh_scan", kOwnShape},
      {"telemetry.hist.mesh_remap", kOwnShape},
      {"telemetry.hist.mesh_release", kOwnShape},
      {"telemetry.hist.epoch_sync", kOwnShape},
      {"telemetry.hist.span_acquire", kOwnShape},
      {"telemetry.hist.punch_syscall", kOwnShape},
      {"telemetry.hist.remap_syscall", kOwnShape},
      {"version.leaves", kOwnShape},
      {"faults.reset", kReset},
      {"telemetry.reset", kReset},
  };
  const std::vector<std::string> Leaves = enumerateLeaves(R);
  const std::set<std::string> LeafSet(Leaves.begin(), Leaves.end());
  for (const auto &[Name, Expected] : Special)
    EXPECT_TRUE(LeafSet.count(Name)) << Name << " is not enumerated";

  // Zero bytes: as a telemetry.dump path this names no file.
  char Zero3[3] = {};
  for (const std::string &Leaf : Leaves) {
    const auto It = Special.find(Leaf);
    const Contract Expected = It == Special.end() ? kReadOnly : It->second;
    const char *Name = Leaf.c_str();
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), Expected.Read)
        << Name;
    EXPECT_EQ(R.mallctl(Name, &Value, nullptr, nullptr, 0),
              Expected.NullLen)
        << Name;
    Len = 4;
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), Expected.Short)
        << Name;
    Len = sizeof(Value);
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, Zero3, sizeof(Zero3)),
              Expected.Write3)
        << Name;
  }

  // The pass totals are the sums and maxima of their per-origin parts.
  // The background pass runs on this thread: the runtime has no mesher,
  // so nothing else can move the counters between the reads.
  auto Read = [&](const char *Name) {
    uint64_t Value = 0;
    size_t Len = sizeof(Value);
    EXPECT_EQ(R.mallctl(Name, &Value, &Len, nullptr, 0), 0) << Name;
    return Value;
  };
  R.meshNow();
  // A global-heap free re-arms the pressure path's hysteresis.
  R.free(R.malloc(size_t{1} << 20));
  ASSERT_TRUE(R.global().backgroundPressureMesh());
  const uint64_t Fg = Read("stats.mesh_passes_foreground");
  const uint64_t Bg = Read("stats.mesh_passes_background");
  EXPECT_GE(Fg, 1u);
  EXPECT_GE(Bg, 1u);
  EXPECT_EQ(Read("stats.mesh_passes"), Fg + Bg);
  EXPECT_EQ(Read("stats.max_pause_ns"),
            std::max(Read("stats.max_pause_foreground_ns"),
                     Read("stats.max_pause_background_ns")));
}

} // namespace
} // namespace mesh
