// Numerical interpreter for fused SpaceFusion schedules.
//
// Executes the temporal intra-block loop exactly as the generated kernel
// would (paper Fig. 7): per intra-block, operators compute on slices of the
// temporal dim; running reductions aggregate with Simple Aggregate or
// Update-then-Aggregate (applying the generated update functions to the old
// running values before combining); downstream operators always consume the
// freshest running values. After the final intra-block the outputs are the
// exact fused results — this is how the repository *proves* that UTA (e.g.
// online softmax in MHA) is numerically equivalent to the reference.
//
// Spatial slicing is not materialized here: spatially sliced dims carry no
// non-input directional mappings by construction (Sec. 4.2), so per-block
// results are bit-identical to computing all blocks at once. The interpreter
// therefore executes the whole spatial extent and slices only the temporal
// dim, which exercises every aggregation/update path.
#ifndef SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_
#define SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_

#include <functional>

#include "src/exec/reference_executor.h"
#include "src/schedule/schedule_ir.h"
#include "src/support/status.h"

namespace spacefusion {

// Executes one fused kernel's schedule over `env` (inputs must be defined;
// outputs/intermediates are written).
Status RunSchedule(const SmgSchedule& schedule, TensorEnv* env);

// Runs one fused kernel with RunSchedule's contract: RunSchedule itself, or
// a JitExecutor's RunKernel.
using KernelRunner = std::function<Status(const SmgSchedule&, TensorEnv*)>;

// The program loop every executor shares: kernels run in sequence through
// `run_kernel`, cut tensors handed from one kernel's outputs to the next
// kernel's inputs by name. INVALID_ARGUMENT, before any kernel runs, unless
// `original_inputs` has one slot per tensor of `original` and every
// input, weight and constant is defined with the graph's shape.
Status RunProgramWith(const KernelRunner& run_kernel, const ScheduledProgram& program,
                      const Graph& original, const TensorEnv& original_inputs,
                      TensorEnv* final_outputs);

// Executes a partitioned program on the interpreter (RunProgramWith over
// RunSchedule).
Status RunScheduledProgram(const ScheduledProgram& program, const Graph& original,
                           const TensorEnv& original_inputs, TensorEnv* final_outputs);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_EXEC_SCHEDULE_EXECUTOR_H_
