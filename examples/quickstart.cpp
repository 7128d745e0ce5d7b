// Quickstart: compile a fused multi-head attention subgraph with
// SpaceFusion, inspect the Space-Mapping Graph and the generated schedule,
// validate the fused numerics against the unfused reference, estimate the
// speedup on an A100, and print the C++ kernel the JIT would build.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "src/codegen/cpp_codegen.h"
#include "src/core/spacefusion.h"
#include "src/support/logging.h"

int main() {
  using namespace spacefusion;
  SetLogThreshold(LogLevel::kWarning);

  // 1. Build the operator graph: per-head attention, 12 heads, seq 512.
  Graph mha = BuildMha(/*batch_heads=*/12, /*seq_q=*/512, /*seq_kv=*/512, /*head_dim=*/64);
  std::printf("== Operator graph ==\n%s\n\n", mha.ToString().c_str());

  // 2. Compile with SpaceFusion for an A100.
  GpuArch arch = AmpereA100();
  CompilerEngine engine{CompileOptions(arch)};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(mha);
  if (!compiled.ok()) {
    std::printf("compilation failed: %s\n", compiled.status().ToString().c_str());
    return 1;
  }

  std::printf("== Fused SMG ==\n%s\n",
              compiled->program.kernels[0].built.smg.ToString().c_str());
  std::printf("== Schedule ==\n%s\n", compiled->program.kernels[0].ToString().c_str());
  std::printf("\n== Update functions (Update-then-Aggregate) ==\n%s\n",
              compiled->program.kernels[0].plan.ToString(mha).c_str());

  // 3. Validate: run the fused schedule and compare with the reference.
  TensorEnv inputs = MakeGraphInputs(mha, /*seed=*/1);
  TensorEnv reference = inputs;
  RunReference(mha, &reference);
  TensorEnv outputs;
  Status st = RunScheduledProgram(compiled->program, mha, inputs, &outputs);
  if (!st.ok()) {
    std::printf("execution failed: %s\n", st.ToString().c_str());
    return 1;
  }
  TensorId out = mha.OutputIds()[0];
  std::printf("max relative error vs reference: %.2e\n",
              MaxRelDiff(outputs[static_cast<size_t>(out)],
                         reference[static_cast<size_t>(out)]));

  // 4. Compare against baselines on the simulator.
  std::printf("\n== Simulated performance on %s ==\n", arch.name.c_str());
  std::printf("  %-24s %10.1f us\n", "SpaceFusion (fused)", compiled->estimate.time_us);
  for (auto make : {MakePyTorchBaseline, MakeFlashAttention2}) {
    auto baseline = make();
    auto report = EstimateGraphWithBaseline(mha, *baseline, arch);
    if (report) {
      std::printf("  %-24s %10.1f us  (%.2fx vs SpaceFusion)\n", baseline->name().c_str(),
                  report->time_us, report->time_us / compiled->estimate.time_us);
    }
  }

  // 5. Show the generated kernel: the C++ the JIT builds and runs.
  StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
  if (!kernel.ok()) {
    std::printf("emission failed: %s\n", kernel.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Generated kernel ==\n%s\n", kernel->source.c_str());
  return 0;
}
