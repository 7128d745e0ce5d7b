#include "src/sim/cost_cache.h"

#include "src/obs/metrics.h"

namespace spacefusion {

KernelCost CostCache::GetOrCompute(std::uint64_t kernel_sig, const std::string& config_key,
                                   const std::function<KernelCost()>& eval) {
  std::string key = std::to_string(kernel_sig) + "|" + config_key;
  {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      SF_COUNTER_ADD("cost_cache.hits", 1);
      return it->second;
    }
  }
  KernelCost cost = eval();
  {
    MutexLock lock(mu_);
    map_.emplace(std::move(key), cost);
    ++stats_.misses;
  }
  SF_COUNTER_ADD("cost_cache.misses", 1);
  return cost;
}

CostCache::Stats CostCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::int64_t CostCache::size() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(map_.size());
}

}  // namespace spacefusion
