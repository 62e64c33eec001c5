#ifndef FAST_TESTS_PIPELINE_SIM_ORACLE_H_
#define FAST_TESTS_PIPELINE_SIM_ORACLE_H_

// Test oracle for fpga/pipeline_sim.h: the cycle-stepped model of the FAST
// kernel pipelines (Fig. 5(a)/(b)/(c)) that SimulatePipeline's closed forms
// were derived from. The Generator(s) emit tokens at their initiation
// intervals, tokens flow through bounded FIFOs into the Visited/Edge
// Validators, and the Synchronizer retires a partial result once both of its
// validation bits are complete; producers stall when a FIFO is full, exactly
// as hls::stream back-pressure would. pipeline_sim_test steps this model
// and requires SimulatePipeline to agree with it exactly.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>

#include "fpga/config.h"
#include "fpga/pipeline_sim.h"
#include "util/logging.h"

namespace fast::testing::oracle {

// Fixed-latency delay line: tokens pushed this cycle become visible
// `latency` cycles later. Models a pipelined hardware stage's depth.
class DelayLine {
 public:
  explicit DelayLine(std::uint32_t latency) : slots_(std::max(1u, latency), 0) {}

  // Advances one cycle; returns the number of tokens that matured.
  std::uint32_t Tick() {
    const std::uint32_t out = slots_.front();
    slots_.pop_front();
    slots_.push_back(0);
    return out;
  }

  void Push(std::uint32_t count) { slots_.back() += count; }

  std::uint32_t InFlight() const {
    std::uint32_t total = 0;
    for (std::uint32_t s : slots_) total += s;
    return total;
  }

 private:
  std::deque<std::uint32_t> slots_;
};

// Token-counting FIFO with capacity and high-water tracking.
class CountFifo {
 public:
  explicit CountFifo(std::size_t capacity) : capacity_(capacity) {}

  bool Full() const { return size_ >= capacity_; }
  bool Empty() const { return size_ == 0; }
  void Push() {
    ++size_;
    high_water_ = std::max(high_water_, size_);
  }
  void Pop() {
    FAST_DCHECK(size_ > 0);
    --size_;
  }
  std::size_t high_water() const { return high_water_; }

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
};

// Serial execution (Fig. 5a): modules run back to back each round; a stage
// with initiation interval ii processing c tokens takes (fill + ii*c).
inline double SerialRoundCycles(const FpgaConfig& config, bool dram,
                                std::uint32_t p, std::uint32_t groups) {
  const double lat = dram ? config.dram_read_latency : 1.0;
  const std::uint64_t t = std::uint64_t{p} * groups;
  double cycles = config.l1_read_buffer;                 // batch fetch from P
  cycles += config.l2_generate + lat * p;                // t_v generation (CST read)
  cycles += config.l3_visited_validate + p;              // visited validation
  for (std::uint32_t g = 0; g < groups; ++g) {
    cycles += config.l5_generate_edge_task + p;          // t_n generation (outer loop
  }                                                      //  not pipelined, Sec. VI-A)
  if (groups > 0) {
    cycles += config.l6_edge_validate + lat * static_cast<double>(t);
  }
  cycles += config.l4_collect + lat * p;                 // synchronizer
  return cycles;
}

// Overlapped execution (Fig. 5b/c): a per-cycle simulation of the module
// graph with bounded FIFOs. kTask starts t_n generation when the t_v loop of
// the round completes; kSep runs both generators concurrently.
struct OverlapResult {
  double cycles = 0;
  double stalls = 0;
  std::size_t fv_high = 0;
  std::size_t fn_high = 0;
};

inline OverlapResult OverlappedRoundCycles(const FpgaConfig& config,
                                           bool split_generators, std::uint32_t p,
                                           std::uint32_t groups) {
  if (p == 0) return {};
  const std::uint64_t total_tn = std::uint64_t{p} * groups;

  CountFifo fifo_v(config.fifo_depth);   // Generator -> Visited Validator
  CountFifo fifo_n(config.fifo_depth);   // Generator -> Edge Validator
  CountFifo bits_v(config.fifo_depth);   // Visited Validator -> Synchronizer
  CountFifo bits_n(config.fifo_depth);   // Edge Validator -> Synchronizer
  DelayLine vv_pipe(config.l3_visited_validate);
  DelayLine ev_pipe(config.l6_edge_validate);

  std::uint32_t tv_emitted = 0;
  std::uint64_t tn_emitted = 0;
  std::uint32_t tn_group = 0;       // current group being generated
  std::uint32_t tn_in_group = 0;    // tasks emitted in the current group
  std::uint32_t tn_refill = config.l5_generate_edge_task;  // group-entry fill
  std::uint64_t v_bits_collected = 0;
  std::uint64_t n_bits_collected = 0;
  std::uint32_t retired = 0;

  OverlapResult result;
  double cycle = config.l1_read_buffer + config.l2_generate;  // pipeline fill
  const double kSafetyCap = 1e13;

  while (retired < p && cycle < kSafetyCap) {
    cycle += 1.0;

    // --- t_v generator: one p_o per cycle while the FIFO has room. ---
    const bool tv_active = tv_emitted < p;
    if (tv_active) {
      if (!fifo_v.Full()) {
        fifo_v.Push();
        ++tv_emitted;
      } else {
        result.stalls += 1.0;
      }
    }

    // --- t_n generator (Alg. 5 lines 10-12). In kTask it shares the
    // Generator module and must wait for the t_v loop; in kSep it runs on a
    // copy of the p_o stream from cycle zero, but cannot run ahead of what
    // has been generated. ---
    const bool tn_enabled = split_generators || tv_emitted == p;
    if (tn_enabled && tn_emitted < total_tn) {
      if (tn_refill > 0) {
        --tn_refill;
      } else if (tn_in_group < std::min<std::uint64_t>(p, split_generators
                                                              ? tv_emitted
                                                              : p)) {
        if (!fifo_n.Full()) {
          fifo_n.Push();
          ++tn_emitted;
          ++tn_in_group;
          if (tn_in_group == p) {
            tn_in_group = 0;
            ++tn_group;
            tn_refill = config.l5_generate_edge_task;
          }
        } else {
          result.stalls += 1.0;
        }
      }
    }

    // --- Validators: II=1, fixed latency, output into bit FIFOs. ---
    if (!fifo_v.Empty() && !bits_v.Full()) {
      fifo_v.Pop();
      vv_pipe.Push(1);
    }
    if (!fifo_n.Empty() && !bits_n.Full()) {
      fifo_n.Pop();
      ev_pipe.Push(1);
    }
    const std::uint32_t vv_done = vv_pipe.Tick();
    for (std::uint32_t i = 0; i < vv_done; ++i) bits_v.Push();
    const std::uint32_t ev_done = ev_pipe.Tick();
    for (std::uint32_t i = 0; i < ev_done; ++i) bits_n.Push();

    // --- Synchronizer: drains one bit from each stream per cycle and
    // retires p_o i once its visited bit and all `groups` edge bits are in.
    // Edge bits arrive group-major, so p_o i needs (groups-1)*p + i + 1 of
    // them (Alg. 8). ---
    if (!bits_v.Empty()) {
      bits_v.Pop();
      ++v_bits_collected;
    }
    if (!bits_n.Empty()) {
      bits_n.Pop();
      ++n_bits_collected;
    }
    const std::uint64_t need_n =
        groups == 0 ? 0
                    : static_cast<std::uint64_t>(groups - 1) * p + retired + 1;
    if (v_bits_collected > retired && n_bits_collected >= need_n) {
      ++retired;
    }
  }
  result.cycles = cycle + config.l4_collect;
  result.fv_high = std::max(fifo_v.high_water(), bits_v.high_water());
  result.fn_high = std::max(fifo_n.high_water(), bits_n.high_water());
  return result;
}

// SimulatePipeline over the stepped rounds above (no cancellation, valid
// config assumed).
inline PipelineSimResult SteppedSimulatePipeline(const FpgaConfig& config,
                                                 FastVariant variant,
                                                 std::span<const RoundWork> rounds) {
  PipelineSimResult result;
  for (const RoundWork& round : rounds) {
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
        const OverlapResult r = OverlappedRoundCycles(
            config, variant == FastVariant::kSep, round.new_partials,
            round.backward_groups);
        result.cycles += r.cycles;
        result.stall_cycles += r.stalls;
        result.tv_fifo_high_water = std::max(result.tv_fifo_high_water, r.fv_high);
        result.tn_fifo_high_water = std::max(result.tn_fifo_high_water, r.fn_high);
        break;
      }
    }
  }
  return result;
}

}  // namespace fast::testing::oracle

#endif  // FAST_TESTS_PIPELINE_SIM_ORACLE_H_
