#ifndef FAST_FPGA_CONFIG_H_
#define FAST_FPGA_CONFIG_H_

// Device model of the FPGA card (paper Sec. II-B, VI-B, VII "Setup").
//
// The paper runs on a Xilinx Alveo U200: 300 MHz kernel clock, 35 MB of
// on-chip BRAM, 64 GB of off-chip DRAM, PCIe gen3 x16 to the host. BRAM
// reads take 1 cycle; DRAM reads 7-8 cycles. These numbers parameterize the
// cycle-level simulation that replaces the physical card here.

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace fast {

struct FpgaConfig {
  // Kernel clock in MHz (Alveo U200 bitstream of the paper: 300 MHz).
  double clock_mhz = 300.0;

  // On-chip BRAM capacity in 32-bit words (35 MB).
  std::size_t bram_words = (35ull << 20) / 4;

  // Off-chip DRAM capacity in bytes (64 GB).
  std::size_t dram_bytes = 64ull << 30;

  // Read latency in cycles (Sec. V-B: "read latency of BRAM is 1 cycle while
  // DRAM is about 7-8 cycles").
  std::uint32_t bram_read_latency = 1;
  std::uint32_t dram_read_latency = 8;

  // Sequential DRAM burst throughput in words per cycle (used for the
  // DRAM->BRAM CST load and the result flush, which are streaming accesses).
  std::uint32_t dram_burst_words_per_cycle = 8;

  // Host<->card PCIe bandwidth in GB/s (gen3 x16 effective ~12 GB/s).
  double pcie_gbps = 12.0;

  // Port_max (Sec. VI-A): the array-partition mechanism bounds how many
  // adjacency entries one candidate may have so edge checks complete in
  // O(1); CSTs whose D_CST exceeds this are partitioned.
  std::uint32_t port_max = 512;

  // N_o (Sec. VI-B): maximum number of newly expanded partial results per
  // round. Must be >> (N*Lf + M*Lt)/(4N + 2M) ~ a few, but large values
  // consume on-chip resources; the default matches a mid-size BRAM budget.
  std::uint32_t max_new_partials = 4096;

  // Average per-module latencies L1..L6 of Sec. VI-B (cycles). Defaults: one
  // cycle to read P, two to expand + emit t_v, one per validation stage, one
  // to collect, two per t_n generate/process.
  std::uint32_t l1_read_buffer = 1;
  std::uint32_t l2_generate = 2;
  std::uint32_t l3_visited_validate = 1;
  std::uint32_t l4_collect = 1;
  std::uint32_t l5_generate_edge_task = 1;
  std::uint32_t l6_edge_validate = 1;

  // Depth of inter-module FIFOs in the task-parallel variants. The pipelines
  // never stall at any depth >= 1 (fpga/pipeline_sim.h), so it does not
  // enter the timing.
  std::uint32_t fifo_depth = 1024;

  // L_f = L1+L2+L3+L4 and L_t = L5+L6 of the cycle equations.
  std::uint32_t Lf() const {
    return l1_read_buffer + l2_generate + l3_visited_validate + l4_collect;
  }
  std::uint32_t Lt() const { return l5_generate_edge_task + l6_edge_validate; }

  double ClockHz() const { return clock_mhz * 1e6; }
  double CyclesToSeconds(double cycles) const { return cycles / ClockHz(); }
  double PcieSeconds(double bytes) const { return bytes / (pcie_gbps * 1e9); }

  Status Validate() const;
};

// The paper's card, as configured above.
inline FpgaConfig AlveoU200Config() { return FpgaConfig{}; }

}  // namespace fast

#endif  // FAST_FPGA_CONFIG_H_
