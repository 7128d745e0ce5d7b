// GPU architecture configurations for the three evaluation platforms
// (paper Sec. 6: V100 / A100 / H100). These are the hardware resource
// configurations (RCfg) consumed by resource-aware slicing, and the machine
// parameters of the performance simulator that substitutes for real GPUs.
#ifndef SPACEFUSION_SRC_SIM_ARCH_H_
#define SPACEFUSION_SRC_SIM_ARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

struct GpuArch {
  std::string name;

  // Compute.
  int num_sms = 80;
  double fp16_tflops = 125.0;  // dense tensor-core peak
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;

  // On-chip memories (bytes).
  std::int64_t smem_per_sm = 96 * 1024;
  std::int64_t smem_per_block_max = 96 * 1024;
  std::int64_t regfile_per_sm = 256 * 1024;  // 64K 32-bit registers
  std::int64_t reg_per_block_max = 256 * 1024;
  std::int64_t l1_per_sm = 128 * 1024;
  std::int64_t l2_bytes = 6 * 1024 * 1024;

  // Bandwidths.
  double dram_gbps = 900.0;
  double l2_gbps = 2500.0;

  // Cache geometry.
  int cache_line_bytes = 128;
  int l2_assoc = 16;

  // Per-kernel launch + CPU-side overhead (microseconds). This is what
  // dilutes speedups on faster architectures (paper Sec. 6.4).
  double launch_overhead_us = 4.0;
};

// NVIDIA V100-SXM2-32GB (SM70).
GpuArch VoltaV100();
// NVIDIA A100-SXM4-80GB (SM80).
GpuArch AmpereA100();
// NVIDIA H100-SXM5-80GB (SM90).
GpuArch HopperH100();

// The three evaluation architectures, in paper order.
std::vector<GpuArch> AllArchitectures();

// Parses a chip code ("v100", "a100", "h100") or a GpuArch::name ("volta",
// "ampere", "hopper"), case-insensitively. An unknown name is
// INVALID_ARGUMENT.
StatusOr<GpuArch> ArchFromName(const std::string& name);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SIM_ARCH_H_
