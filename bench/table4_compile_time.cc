// Reproduces paper Table 4: compilation-time breakdown for MHA.
//
// The scheduling phases (TS.getPriorDim+TS.slice, enumCfg,
// SS.getDims+SS.slice) are measured as real wall-clock time of this
// implementation; the auto-tuning column is the emulated time the
// measurement runs (20 warm-up + 100 timed executions per configuration,
// with the alpha=0.25 early-quit) would take on the GPU, computed from the
// simulator — mirroring how the paper's tuner spends its time. Each row's
// detail line also gives the exhaustive sweep's modeled tuning time
// (TunerOptions::screen_top_k = 0: every config measured), the figure the
// staged screen is compared against.
//
// Paper reference (A100): MHA(32,1024): scheduling ~20ms total, tuning
// 33.04s, total 36.33s; MHA(32,256): tuning 29.55s, total 33.41s.
#include "bench/bench_util.h"
#include "src/schedule/search_space.h"
#include "src/slicing/slicers.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

void Run() {
  PrintHeader("Table 4: Compilation time breakdown for MHA (Ampere)");
  GpuArch arch = AmpereA100();
  ResourceConfig rc = ResourceConfig::FromArch(arch);

  std::printf("%-16s %22s %12s %22s %12s %12s\n", "Workload", "TS.getPriorDim+slice", "enumCfg",
              "SS.getDims+SS.slice", "Tuning", "Total");

  for (std::int64_t seq : {1024, 256}) {
    Graph g = BuildMha(32 * 12, seq, seq, 64);

    // SS phase.
    WallTimer timer;
    StatusOr<SmgBuildResult> built = BuildSmg(g);
    std::vector<DimId> spatial = SpatialSlicer::GetDims(built->smg);
    double ss_ms = timer.ElapsedMs();

    // TS phase.
    timer.Reset();
    StatusOr<TemporalChoice> choice = TemporalSlicer::GetPriorDim(g, *built, spatial);
    double ts_ms = timer.ElapsedMs();

    // Config enumeration.
    timer.Reset();
    SmgSchedule sched;
    sched.graph = g;
    sched.built = std::move(built).value();
    for (DimId d : spatial) {
      sched.spatial.push_back({d, 1});
    }
    if (choice.ok()) {
      sched.has_temporal = true;
      sched.temporal = {choice->dim, sched.built.smg.dim(choice->dim).extent};
      sched.plan = choice->plan;
    }
    SlicingResult result;
    result.configs =
        EnumerateConfigs(&sched, rc, /*include_temporal=*/true, /*min_block=*/1,
                         &result.footprints);
    double enum_ms = timer.ElapsedMs();

    // Tuning: emulated on-GPU measurement time (staged: the analytical
    // screen admits top-K configs to the modeled measurement runs).
    result.schedule = sched;
    CostModel cost(arch);
    TuningStats stats = TuneKernel(&result, cost, rc);
    SlicingResult exhaustive_result = result;
    TunerOptions exhaustive_options;
    exhaustive_options.screen_top_k = 0;
    const TuningStats exhaustive = TuneKernel(&exhaustive_result, cost, rc, exhaustive_options);

    // Host-side tuning wall-clock, timed over repeated sweeps for a stable
    // per-sweep figure. The sweep is deterministic, so every iteration
    // retunes to the same schedule.
    constexpr int kSweeps = 400;
    WallTimer tune_timer;
    for (int i = 0; i < kSweeps; ++i) {
      TuneKernel(&result, cost, rc);
    }
    double tune_wall_ms = tune_timer.ElapsedMs() / kSweeps;

    double total_s = stats.simulated_tuning_seconds + (ss_ms + ts_ms + enum_ms) * 1e-3;
    char label[32];
    std::snprintf(label, sizeof(label), "MHA(32,%lld)", static_cast<long long>(seq));
    std::printf("%-16s %19.2f ms %9.2f ms %19.2f ms %10.2f s %10.2f s\n", label, ts_ms, enum_ms,
                ss_ms, stats.simulated_tuning_seconds, total_s);
    std::printf("  (%d configs screened, %d measured, %d early-quit; host sweep %.3f ms)\n",
                stats.configs_screened, stats.configs_tried, stats.configs_early_quit,
                tune_wall_ms);
    std::printf("  (exhaustive, screen_top_k = 0: tuning %.2f s, %d measured, %d early-quit)\n",
                exhaustive.simulated_tuning_seconds, exhaustive.configs_tried,
                exhaustive.configs_early_quit);
  }
  std::printf("\nPaper reference: MHA(32,1024) tuning 33.04s / total 36.33s;"
              " MHA(32,256) tuning 29.55s / total 33.41s.\n");
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
