#include "fpga/pipeline_sim.h"

#include <algorithm>

namespace fast {

namespace {

// Serial execution (Fig. 5a): modules run back to back each round; a stage
// with initiation interval ii processing c tokens takes (fill + ii*c).
double SerialRoundCycles(const FpgaConfig& config, bool dram, std::uint32_t p,
                         std::uint32_t groups) {
  const double lat = dram ? config.dram_read_latency : 1.0;
  const std::uint64_t t = std::uint64_t{p} * groups;
  double cycles = config.l1_read_buffer;                 // batch fetch from P
  cycles += config.l2_generate + lat * p;                // t_v generation (CST read)
  cycles += config.l3_visited_validate + p;              // visited validation
  // t_n generation: the outer loop over groups is not pipelined (Sec. VI-A),
  // so every group pays its entry fill.
  cycles += static_cast<double>(
      groups * (std::uint64_t{config.l5_generate_edge_task} + p));
  if (groups > 0) {
    cycles += config.l6_edge_validate + lat * static_cast<double>(t);
  }
  cycles += config.l4_collect + lat * p;                 // synchronizer
  return cycles;
}

// Overlapped execution (Fig. 5b/c). Every stage moves at most one token per
// cycle and the Synchronizer drains one bit per stream per cycle, so no FIFO
// ever holds more than one token and no producer stalls at any depth: each
// stream is a pure delay line. After the L1+L2 fill the round retires its
// last partial when the slower stream delivers its last bit:
//  - t_v: p tokens through the Visited Validator, max(1, L3) + p - 1 cycles;
//  - t_n: G groups of (L5 entry fill + p tasks) through the Edge Validator,
//    max(1, L6) - 1 more. kTask shares the Generator and starts only after
//    the t_v loop (p - 1 cycles in); kSep starts at once.
// The Synchronizer's collect (L4) closes the round. p > 0.
double OverlappedRoundCycles(const FpgaConfig& config, bool split_generators,
                             std::uint32_t p, std::uint32_t groups) {
  const std::uint64_t tv_done =
      std::max(1u, config.l3_visited_validate) + std::uint64_t{p} - 1;
  std::uint64_t tn_done = 0;
  if (groups > 0) {
    const std::uint64_t start = split_generators ? 0 : p - 1;
    tn_done = start + groups * (std::uint64_t{config.l5_generate_edge_task} + p) +
              std::max(1u, config.l6_edge_validate) - 1;
  }
  return static_cast<double>(std::uint64_t{config.l1_read_buffer} +
                             config.l2_generate + std::max(tv_done, tn_done) +
                             config.l4_collect);
}

}  // namespace

StatusOr<PipelineSimResult> SimulatePipeline(const FpgaConfig& config,
                                             FastVariant variant,
                                             std::span<const RoundWork> rounds,
                                             const CancelToken* cancel) {
  FAST_RETURN_IF_ERROR(config.Validate());
  PipelineSimResult result;
  for (const RoundWork& round : rounds) {
    // One probe per simulated round, matching RunKernel's per-round probe:
    // each round's cost is bounded by one N_o batch of work.
    if (cancel != nullptr && cancel->Cancelled()) {
      return Status::DeadlineExceeded("pipeline simulation cancelled mid-run");
    }
    if (round.new_partials == 0) continue;
    switch (variant) {
      case FastVariant::kDram:
      case FastVariant::kBasic: {
        result.cycles += SerialRoundCycles(config, variant == FastVariant::kDram,
                                           round.new_partials, round.backward_groups);
        break;
      }
      case FastVariant::kTask:
      case FastVariant::kSep: {
        result.cycles += OverlappedRoundCycles(config, variant == FastVariant::kSep,
                                               round.new_partials,
                                               round.backward_groups);
        // Stall-free: one token in flight per FIFO (see above).
        result.tv_fifo_high_water = 1;
        if (round.backward_groups > 0) result.tn_fifo_high_water = 1;
        break;
      }
    }
  }
  return result;
}

}  // namespace fast
