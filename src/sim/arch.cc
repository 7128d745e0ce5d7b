#include "src/sim/arch.h"

#include "src/support/string_util.h"

namespace spacefusion {

GpuArch VoltaV100() {
  GpuArch a;
  a.name = "Volta";
  a.num_sms = 80;
  a.fp16_tflops = 125.0;
  a.max_threads_per_sm = 2048;
  a.max_blocks_per_sm = 32;
  a.smem_per_sm = 96 * 1024;
  a.smem_per_block_max = 96 * 1024;
  a.regfile_per_sm = 256 * 1024;
  a.reg_per_block_max = 256 * 1024;
  a.l1_per_sm = 128 * 1024;
  a.l2_bytes = 6LL * 1024 * 1024;
  a.dram_gbps = 900.0;
  a.l2_gbps = 2500.0;
  a.launch_overhead_us = 3.5;
  return a;
}

GpuArch AmpereA100() {
  GpuArch a;
  a.name = "Ampere";
  a.num_sms = 108;
  a.fp16_tflops = 312.0;
  a.max_threads_per_sm = 2048;
  a.max_blocks_per_sm = 32;
  a.smem_per_sm = 164 * 1024;
  a.smem_per_block_max = 163 * 1024;
  a.regfile_per_sm = 256 * 1024;
  a.reg_per_block_max = 256 * 1024;
  a.l1_per_sm = 192 * 1024;
  a.l2_bytes = 40LL * 1024 * 1024;
  a.dram_gbps = 2039.0;
  a.l2_gbps = 5100.0;
  a.launch_overhead_us = 3.0;
  return a;
}

GpuArch HopperH100() {
  GpuArch a;
  a.name = "Hopper";
  a.num_sms = 132;
  a.fp16_tflops = 989.0;
  a.max_threads_per_sm = 2048;
  a.max_blocks_per_sm = 32;
  a.smem_per_sm = 228 * 1024;
  a.smem_per_block_max = 227 * 1024;
  a.regfile_per_sm = 256 * 1024;
  a.reg_per_block_max = 256 * 1024;
  a.l1_per_sm = 256 * 1024;
  a.l2_bytes = 50LL * 1024 * 1024;
  a.dram_gbps = 3350.0;
  a.l2_gbps = 8000.0;
  a.launch_overhead_us = 2.5;
  return a;
}

std::vector<GpuArch> AllArchitectures() { return {VoltaV100(), AmpereA100(), HopperH100()}; }

StatusOr<GpuArch> ArchFromName(const std::string& name) {
  const std::string lower = ToLower(name);
  // Chip codes and microarchitecture names both work: GpuArch::name is
  // "Volta"/"Ampere"/"Hopper", the paper and CLI flags say V100/A100/H100.
  if (lower == "v100" || lower == "volta") {
    return VoltaV100();
  }
  if (lower == "a100" || lower == "ampere") {
    return AmpereA100();
  }
  if (lower == "h100" || lower == "hopper") {
    return HopperH100();
  }
  return InvalidArgument(StrCat("unknown arch \"", name, "\" (expected v100|a100|h100)"));
}

}  // namespace spacefusion
