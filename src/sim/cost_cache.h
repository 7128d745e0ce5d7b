// Memoization table in front of CostModel for tuner config evaluations.
//
// The tuner evaluates (apply config -> plan memory -> lower -> estimate)
// for every configuration of every kernel; identical SMG blocks recur both
// inside one model (repeated layers compile to the same kernels) and across
// candidate programs, so the same (kernel signature, config) pair is asked
// for repeatedly. The cache keys on an opaque signature the tuner derives
// from the schedule template plus the config's ToString() and stores the
// full KernelCost. Hits and misses are exported through the obs metrics
// registry as "cost_cache.hits" / "cost_cache.misses".
//
// One mutex guards the table: the engine shares a cache between concurrent
// requests (sf-serve's few compile workers), and each compile runs on one
// thread.
//
// Determinism: a cached value is exactly the value the evaluation would
// recompute (the evaluation is a pure function of the key), so tuning
// results are bit-identical with or without the cache.
#ifndef SPACEFUSION_SRC_SIM_COST_CACHE_H_
#define SPACEFUSION_SRC_SIM_COST_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "src/sim/cost_model.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

class CostCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };

  // Returns the cached cost for (kernel_sig, config_key), or computes it
  // with `eval` and inserts. `eval` runs outside the lock, so two requests
  // missing on the same key may both compute it (the same pure value; the
  // first insert wins).
  KernelCost GetOrCompute(std::uint64_t kernel_sig, const std::string& config_key,
                          const std::function<KernelCost()>& eval);

  Stats stats() const;
  std::int64_t size() const;

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, KernelCost> map_ SF_GUARDED_BY(mu_);
  Stats stats_ SF_GUARDED_BY(mu_);
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SIM_COST_CACHE_H_
