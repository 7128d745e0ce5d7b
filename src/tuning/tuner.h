// Auto-tuning: measures every configuration of a kernel's search space on
// the GPU simulator (substituting for the paper's on-GPU test runs) and
// picks the fastest.
//
// Tuning *time* is also modeled, because Table 4 / Table 5 report it: each
// configuration would be measured with kWarmupRuns (20) warm-up +
// kTimedRuns (100) timed runs, and the early-quit mechanism abandons a
// configuration once its accumulated test time exceeds kEarlyQuitAlpha
// (0.25) of the incumbent best configuration's total.
//
// Evaluation is staged: a closed-form screening pass (CostModel::ScreenKernel
// over the ConfigFootprints captured at enumeration — no lowering, no trace)
// scores every config, and only the screened top-K plus every config within
// kScreenEpsilon (2%) of the screened best proceed to full EstimateKernel
// fidelity. The screen score is a lower bound of the full estimate, and the
// epsilon band guarantees near-ties are never dropped on screen noise.
//
// The sweep runs on the caller's thread. The argmin scans configs in index
// order (lowest index wins ties), and the early-quit charge replays the
// modeled GPU measuring configs one after another in measurement order.
// simulated_tuning_seconds covers the configs that reach full evaluation:
// those are the ones the modeled GPU measures.
#ifndef SPACEFUSION_SRC_TUNING_TUNER_H_
#define SPACEFUSION_SRC_TUNING_TUNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/schedule/pipeline.h"
#include "src/sim/cost_model.h"

namespace spacefusion {

// The modeled measurement protocol (see the header comment).
constexpr double kEarlyQuitAlpha = 0.25;
constexpr int kWarmupRuns = 20;
constexpr int kTimedRuns = 100;
// Guaranteed admission: any config whose screen score is within this
// relative margin of the screened best is always fully evaluated, even
// beyond top-K.
constexpr double kScreenEpsilon = 0.02;

struct TuningStats {
  std::int64_t configs_enumerated = 0;  // search-space size before any cut
  int configs_screened = 0;  // configs scored by stage 1 (0 = screening inactive)
  int configs_tried = 0;     // configs that reached full-fidelity evaluation
  int configs_early_quit = 0;
  double best_time_us = 0.0;
  // Emulated wall-clock the measurement runs would take on the GPU.
  double simulated_tuning_seconds = 0.0;

  // ---- Shape-bucket config transfer (in-memory only; none of these are
  // serialized into .sfpc blobs, keeping persisted programs byte-identical
  // to the pre-transfer format). configs_transfer_seeded counts admitted
  // configs the modeled GPU measured first because a neighboring bucket's
  // prior named them; admitted_configs carries the admitted set best
  // measured config first, the prior handed to the *next* bucket.
  int configs_transfer_seeded = 0;
  std::uint64_t transfer_signature = 0;  // shape-free schedule identity
  std::vector<std::string> admitted_configs;
};

// What one tuned kernel contributes to the engine's cross-bucket transfer
// store: its shape-free signature plus its admitted configs, best first.
struct TunedKernelRecord {
  std::uint64_t signature = 0;
  std::vector<std::string> admitted_configs;
};

struct TunerOptions {
  bool enable_early_quit = true;
  // Stage-1 screening cut: -1 = auto (max(8, 10% of the sweep)), 0 = off,
  // k > 0 = exactly k configs (plus the guaranteed-admission band).
  int screen_top_k = -1;
  // Config transfer across shape buckets: maps the schedule being tuned to
  // the nearest already-tuned bucket's admitted configs (best first), or
  // empty for none. A prior reorders only the *modeled measurement
  // schedule* — transferred configs run first, so a near-optimal incumbent
  // early-quits the rest and simulated_tuning_seconds collapses — it never
  // changes which configs are admitted or which one wins, so it is
  // deliberately excluded from CompileOptionsDigest.
  std::function<std::vector<std::string>(const SmgSchedule&)> transfer_prior;
};

// Shape-free identity of a schedule template: the graph's TopologyHash,
// the sliced dims, the architecture and the resource bounds, so the same
// kernel template tuned at two different bucket shapes collides. Keys the
// engine's cross-bucket config-transfer store.
std::uint64_t TransferSignature(const SmgSchedule& schedule, const GpuArch& arch,
                                const ResourceConfig& rc);

// Tunes one kernel in place: applies the best config to `result->schedule`.
TuningStats TuneKernel(SlicingResult* result, const CostModel& cost, const ResourceConfig& rc,
                       const TunerOptions& options = TunerOptions());

// Picks the config nearest an expert default (64-wide tiles, 64-step
// temporal) without measuring — the Base(SS)/Base+TS ablation variants.
void ApplyExpertConfig(SlicingResult* result, const ResourceConfig& rc);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_TUNING_TUNER_H_
