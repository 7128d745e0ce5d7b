// Runtime shape dispatch: routing a request shape to its bucket's program.
//
// CompileModelForShape produces one compiled program set per *bucket*; this
// layer holds those results in a ShapeDispatchTable and executes an exact
// request shape against them. RunBucketedSubprogram pads the exact-shape
// inputs to the bucket extents (per the factory's SubprogramLayouts), runs
// the bucket's compiled schedule through the interpreter or the JIT, and
// slices the outputs back to the exact shape — so both executors serve any
// shape in a compiled bucket without a fresh compile. The differential suite
// asserts the dispatched result against a direct compile at the exact shape.
#ifndef SPACEFUSION_SRC_CORE_SHAPE_DISPATCH_H_
#define SPACEFUSION_SRC_CORE_SHAPE_DISPATCH_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/exec/jit_executor.h"
#include "src/graph/shape_bucket.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

// How a dispatched subprogram executes: kInterpret runs the schedule
// interpreter; kJit runs `jit`, which must then be non-null and builds or
// loads each kernel through its kernel cache.
struct BucketRunOptions {
  ExecBackend backend = ExecBackend::kInterpret;
  JitExecutor* jit = nullptr;
};

// Bucket label -> compiled bucket programs. Thread-safe; entries are stable
// once added (Route/EntryFor pointers stay valid across later Adds).
class ShapeDispatchTable {
 public:
  // One compiled bucket plus the subprogram -> unique-program index map,
  // copied from CompiledModel::sub_to_unique.
  struct Entry {
    ShapeCompileResult result;
    std::vector<size_t> sub_to_unique;
  };

  explicit ShapeDispatchTable(BucketingPolicy policy = BucketingPolicy::PowersOfTwo())
      : policy_(std::move(policy)) {}

  // Registers `result` under its bucket key, replacing any previous entry
  // for the same bucket. Fails when the compiled programs cannot be aligned
  // with the bucketed model's subprograms.
  Status Add(ShapeCompileResult result);

  // The entry serving `shape` under this table's policy, or nullptr when
  // that bucket has not been added.
  const Entry* Route(const ShapeKey& shape) const;
  // The entry compiled exactly at `bucket`, or nullptr.
  const Entry* EntryFor(const ShapeKey& bucket) const;

  // Labels of every bucket in the table, ascending.
  std::vector<std::string> Buckets() const;

  const BucketingPolicy& policy() const { return policy_; }

 private:
  BucketingPolicy policy_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_ SF_GUARDED_BY(mu_);
};

// Executes subprogram `sub_index` of `entry` at the exact request shape:
// exact inputs (indexed by `exact`'s graph tensor ids, as MakeGraphInputs
// lays them out) are padded to the bucket extents, the bucket's compiled
// program runs, and the outputs are sliced back into *exact_outputs at the
// exact graph's output ids (mirroring RunScheduledProgram's contract).
// kJit without an executor is INVALID_ARGUMENT.
//
// `exact` must come from BuildModelBucketed at the request shape (identity
// policy) — the factory guarantees tensor-id correspondence with the bucket
// graphs, which is what makes id-indexed padding sound.
Status RunBucketedSubprogram(const ShapeDispatchTable::Entry& entry, size_t sub_index,
                             const BucketedModel& exact, const TensorEnv& exact_inputs,
                             TensorEnv* exact_outputs, const BucketRunOptions& run = {});

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CORE_SHAPE_DISPATCH_H_
