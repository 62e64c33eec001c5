#ifndef FAST_FPGA_PIPELINE_SIM_H_
#define FAST_FPGA_PIPELINE_SIM_H_

// Per-round timing of the FAST kernel pipelines (Fig. 5(a)/(b)/(c)).
//
// The analytic cost model (fpga/cycle_model.h) evaluates the paper's closed
// forms (Eqs. 1-4) over whole-run counters, which idealize away pipeline fill
// and the unpipelinable outer loop of t_n generation. This module times each
// round of the recorded trace instead: the Generator(s) emit tokens at their
// initiation intervals, tokens flow through FIFOs into the Visited/Edge
// Validators, and the Synchronizer retires a partial result once both of its
// validation bits are complete.
//
// Every module runs at II=1 and the Synchronizer drains one bit per stream
// per cycle, so the streams are rate-balanced: no FIFO ever holds more than
// one token and no producer stalls at any fifo_depth >= 1. Each round's cost
// is therefore an exact closed form in (variant, p, groups, L1..L6).
// tests/pipeline_sim_oracle.h keeps the cycle-stepped model with bounded
// FIFOs and back-pressure, and pipeline_sim_test requires both to agree
// exactly on cycles, stalls and FIFO high-water marks.
//
// Inputs are per-round workload traces recorded by the functional kernel
// (core/kernel.h): how many partial results the round expanded and how many
// backward non-tree groups each carries.

#include <cstdint>
#include <span>
#include <vector>

#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "util/cancel.h"
#include "util/status.h"

namespace fast {

// Workload of one Generator round.
struct RoundWork {
  std::uint32_t new_partials = 0;  // p_o expanded this round (<= N_o)
  std::uint16_t backward_groups = 0;  // non-tree neighbors of the round's vertex
};

// Aggregate outcome of a pipeline simulation.
struct PipelineSimResult {
  double cycles = 0;
  // High-water marks of the inter-module FIFOs (tokens): at most 1.
  std::size_t tv_fifo_high_water = 0;
  std::size_t tn_fifo_high_water = 0;
  // Cycles any producer spent stalled on a full FIFO: always 0 (see above).
  double stall_cycles = 0;
};

// Simulates the given variant over the recorded rounds. The serial variants
// (kDram/kBasic) run their modules back to back per round; kTask overlaps
// modules through FIFOs but generates t_n only after the t_v loop of the
// round; kSep runs both generators concurrently (Sec. VI-D). Constant time
// per round.
//
// A non-null `cancel` token is probed once per round, mirroring RunKernel's
// discipline: device-mode serving simulates the pipeline inside shared device
// rounds (device/device_executor.h), and an expired deadline must abort the
// simulation mid-run with DEADLINE_EXCEEDED just like the matching loops.
StatusOr<PipelineSimResult> SimulatePipeline(const FpgaConfig& config,
                                             FastVariant variant,
                                             std::span<const RoundWork> rounds,
                                             const CancelToken* cancel = nullptr);

}  // namespace fast

#endif  // FAST_FPGA_PIPELINE_SIM_H_
