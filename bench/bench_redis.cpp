//===- bench_redis.cpp - Figure 7 regenerator --------------------------------===//
///
/// Paper Figure 7 + Section 6.2.2: Redis as a 100 MB LRU cache,
/// 700k x 240 B inserts then 170k x 492 B inserts, then idle.
/// Configurations: jemalloc-like + application-level activedefrag,
/// Mesh, and Mesh with meshing disabled. The paper reports Mesh
/// matching activedefrag's 39% heap reduction automatically, with
/// compaction time 0.23 s vs defragmentation's 1.49 s (5.5x slower)
/// and a longest mesh pause of 22 ms.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/SizeClassAllocator.h"
#include "workloads/RedisWorkload.h"

#include <cstdio>

using namespace mesh;

namespace {

struct RunOutput {
  RedisWorkloadResult Result;
  double MeanMiB;
  double PeakMiB;
  double FinalMiB;
};

RunOutput runOne(HeapBackend &Backend, const char *Label,
                 bool UseActiveDefrag) {
  RedisWorkloadConfig Config;
  Config.UseActiveDefrag = UseActiveDefrag;
  if (benchSmokeMode()) {
    Config.Scale = 0.05;
    Config.IdleRounds = 3;
  }
  MemoryMeter Meter(Backend, Config.OpsPerSample);
  const RedisWorkloadResult Result =
      runRedisWorkload(Backend, Meter, Config);
  Meter.printSeries(Label);
  return RunOutput{Result, toMiB(Meter.meanCommittedBytes()),
                   toMiB(static_cast<double>(Meter.peakCommittedBytes())),
                   toMiB(static_cast<double>(Result.FinalCommittedBytes))};
}

} // namespace

int main(int argc, char **argv) {
  benchInit(argc, argv);
  printHeader("Figure 7",
              "Redis LRU-cache benchmark: RSS over time, three configs");

  SizeClassAllocator Jemalloc(size_t{4} << 30);
  const RunOutput Defrag =
      runOne(Jemalloc, "jemalloc+activedefrag", /*UseActiveDefrag=*/true);

  MeshBackend Mesh(benchMeshOptions(), "Mesh");
  const RunOutput WithMesh = runOne(Mesh, "Mesh", false);
  const auto &Stats = Mesh.runtime().global().stats();

  MeshBackend NoMesh(benchMeshOptions(/*Meshing=*/false), "Mesh-nomesh");
  const RunOutput NoMeshOut = runOne(NoMesh, "Mesh(no-meshing)", false);

  printf("\nconfig                     insert_s  maint_s  mean_MiB  "
         "peak_MiB  final_MiB\n");
  printf("jemalloc+activedefrag      %8.2f %8.3f  %8.1f  %8.1f  %8.1f\n",
         Defrag.Result.InsertSeconds, Defrag.Result.MaintenanceSeconds,
         Defrag.MeanMiB, Defrag.PeakMiB, Defrag.FinalMiB);
  printf("Mesh                       %8.2f %8.3f  %8.1f  %8.1f  %8.1f\n",
         WithMesh.Result.InsertSeconds, WithMesh.Result.MaintenanceSeconds,
         WithMesh.MeanMiB, WithMesh.PeakMiB, WithMesh.FinalMiB);
  printf("Mesh (no meshing)          %8.2f %8.3f  %8.1f  %8.1f  %8.1f\n",
         NoMeshOut.Result.InsertSeconds,
         NoMeshOut.Result.MaintenanceSeconds, NoMeshOut.MeanMiB,
         NoMeshOut.PeakMiB, NoMeshOut.FinalMiB);

  auto EmitJson = [](const char *Config, const RunOutput &O,
                     double MaxPauseNs) {
    // Mirror runOne's scaling so --smoke --json reports honest
    // throughput, not the full-scale op count over a smoke-sized run.
    RedisWorkloadConfig Defaults;
    const double Scale = benchSmokeMode() ? 0.05 : Defaults.Scale;
    const double Ops =
        (Defaults.Phase1Keys + Defaults.Phase2Keys) * Scale;
    benchReportJson(
        "bench_redis", Config,
        {{"ops_per_sec", Ops / (O.Result.InsertSeconds + 1e-9)},
         {"insert_s", O.Result.InsertSeconds},
         {"maint_s", O.Result.MaintenanceSeconds},
         {"mean_rss_mib", O.MeanMiB},
         {"peak_rss_mib", O.PeakMiB},
         {"final_rss_mib", O.FinalMiB},
         {"max_pause_ns", MaxPauseNs}});
  };
  EmitJson("jemalloc+activedefrag", Defrag, 0);
  EmitJson("Mesh", WithMesh, static_cast<double>(Stats.maxPassNs()));
  EmitJson("Mesh-nomesh", NoMeshOut, 0);

  const double Reduction =
      100.0 * (1.0 - WithMesh.FinalMiB / NoMeshOut.FinalMiB);
  printf("\nRESULT redis_heap_reduction_vs_nomesh_pct %.1f (paper: 39)\n",
         Reduction);
  printf("RESULT redis_mesh_total_s %.3f (paper: 0.23)\n",
         WithMesh.Result.MaintenanceSeconds);
  printf("RESULT redis_defrag_total_s %.3f (paper: 1.49)\n",
         Defrag.Result.MaintenanceSeconds);
  printf("RESULT redis_defrag_vs_mesh_slowdown %.1fx (paper: 5.5x)\n",
         Defrag.Result.MaintenanceSeconds /
             (WithMesh.Result.MaintenanceSeconds + 1e-9));
  printf("RESULT redis_longest_mesh_pause_ms %.2f (paper: 22)\n",
         Stats.maxPassNs() * 1e-6);
  printf("RESULT redis_insert_overhead_pct %.1f (paper: ~2)\n",
         100.0 * (WithMesh.Result.InsertSeconds /
                      (Defrag.Result.InsertSeconds + 1e-9) -
                  1.0));
  return 0;
}
