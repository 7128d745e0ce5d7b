// Umbrella header: the SpaceFusion public API.
//
// Typical use:
//
//   #include "src/core/spacefusion.h"
//
//   spacefusion::Graph mha = spacefusion::BuildMha(12, 512, 512, 64);
//   spacefusion::CompilerEngine engine{
//       spacefusion::CompileOptions(spacefusion::AmpereA100())};
//   auto compiled = engine.Compile(mha);
//   // compiled->kernels: fused kernel launches
//   // compiled->estimate: simulated execution report
//
// Numerical validation:
//
//   spacefusion::TensorEnv env = spacefusion::MakeGraphInputs(mha, /*seed=*/1);
//   spacefusion::TensorEnv outputs;
//   spacefusion::RunScheduledProgram(compiled->program, mha, env, &outputs);
#ifndef SPACEFUSION_SRC_CORE_SPACEFUSION_H_
#define SPACEFUSION_SRC_CORE_SPACEFUSION_H_

#include "src/baselines/baseline.h"        // IWYU pragma: export
#include "src/core/engine.h"               // IWYU pragma: export
#include "src/core/model_runner.h"         // IWYU pragma: export
#include "src/pass/pass.h"                 // IWYU pragma: export
#include "src/exec/schedule_executor.h"    // IWYU pragma: export
#include "src/graph/builder.h"             // IWYU pragma: export
#include "src/graph/models.h"              // IWYU pragma: export
#include "src/graph/subgraphs.h"           // IWYU pragma: export
#include "src/obs/metrics.h"               // IWYU pragma: export
#include "src/obs/trace.h"                 // IWYU pragma: export
#include "src/sim/arch.h"                  // IWYU pragma: export
#include "src/sim/memory_sim.h"            // IWYU pragma: export

#endif  // SPACEFUSION_SRC_CORE_SPACEFUSION_H_
