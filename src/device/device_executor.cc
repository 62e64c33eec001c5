#include "device/device_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <utility>

#include "core/kernel.h"
#include "fpga/pipeline_sim.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/wrr.h"

namespace fast::device {

namespace {
// Bound on the retained TimelineRound ring (~2k rounds of timeline history).
constexpr std::size_t kRecentRoundsCapacity = 2048;
// Rounds open at once: the next round transfers and starts matching while
// the current one's last items finish (double buffering).
constexpr std::size_t kRoundDepth = 2;
}  // namespace

// One query session: the queue it is scheduled on, the per-query sinks its
// items feed, and the count FinishQuery waits on.
struct DeviceQuery {
  std::shared_ptr<DeviceQueue> queue;
  MatchingOrder order;
  ResultCollector* collector = nullptr;
  const CancelToken* cancel = nullptr;

  // The items of one query may match on several threads at once, each into
  // its own collector; this forwards their embeddings to `collector`'s
  // callback one at a time (empty when it has none).
  std::function<void(std::span<const VertexId>)> item_callback;
  std::mutex callback_mu;

  // FinishQuery's sleep, guarded by the executor's claim_mu_: listed in its
  // waiters_ while `waiting`, and woken only by a round opening with an item
  // to spare or by this query's last item being folded. One wake per
  // sleeper, not one shared condition: with one-item rounds a shared wake
  // would rouse every sleeping worker at each round's end.
  std::condition_variable_any wake;
  bool waiting = false;

  std::mutex mu;
  std::size_t outstanding = 0;  // enqueued, not yet reassembled
  DeviceQueryResult result;
};

// A CST partition awaiting its device round.
struct DeviceExecutor::WorkItem {
  std::shared_ptr<DeviceQuery> query;
  CompiledPartition part;
};

// One item's matching outcome, staged until the round's reassembly.
struct DeviceExecutor::ItemOutcome {
  Status status = Status::OK();
  KernelRunResult run;
  ResultCollector collector;
  double kernel_seconds = 0.0;
};

// One device round from opening to retirement: its items, the figures of its
// transfer phase, and its matching phase. Owned by the device thread; the
// claim fields are guarded by claim_mu_ once the round is published.
struct DeviceExecutor::Round {
  std::vector<WorkItem> items;
  // A live item's outcome is written by its claimer; a skipped item's is
  // DEADLINE_EXCEEDED from the opening.
  std::vector<ItemOutcome> outcomes;
  std::vector<std::size_t> contributed; // unique bytes each item transferred
  std::uint64_t id = 0;                 // 1-based; 0 = no live item
  double open_seconds = 0.0;            // ProcessUptimeSeconds at opening
  std::uint64_t payload = 0;
  std::uint64_t saved = 0;
  std::uint64_t wire = 0;
  double pcie_s = 0.0;
  double overhead_share = 0.0;  // transaction bytes charged per live item

  std::vector<std::size_t> open_items;  // live item indices, in claim order
  std::size_t next_claim = 0;           // next open_items entry to claim
  std::size_t unmatched = 0;            // live, not yet matched
};

// One fairness queue: its executor, and the pending items and WRR state
// guarded by that executor's mu_. Fairness state lives in the shared WRR
// helper (util/wrr.h) — the same discipline tenant::TenantRouter dispatches
// with.
struct DeviceQueue {
  DeviceExecutor* device = nullptr;
  std::deque<DeviceExecutor::WorkItem> items;
  WrrQueueState wrr;
};

std::string DeviceStats::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rounds=%llu items/round=%.2f queries/round=%.2f "
                "wire=%.1fKiB dedup_saved=%.1fKiB cancelled=%llu failed=%llu "
                "pcie(sim)=%.3fms kernel(sim)=%.3fms",
                static_cast<unsigned long long>(rounds), ItemsPerRound(),
                QueriesPerRound(), static_cast<double>(wire_bytes) / 1024.0,
                static_cast<double>(dedup_bytes_saved) / 1024.0,
                static_cast<unsigned long long>(cancelled_items),
                static_cast<unsigned long long>(failed_items),
                pcie_seconds * 1e3, kernel_seconds * 1e3);
  return buf;
}

DeviceExecutor::DeviceExecutor(DeviceOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    rounds_counter_ =
        m->GetCounter("fast_device_rounds_total", "Device rounds executed");
    items_counter_ = m->GetCounter("fast_device_items_total",
                                   "CST partitions matched on the device");
    cancelled_counter_ = m->GetCounter("fast_device_cancelled_items_total",
                                       "Items skipped/aborted by a deadline");
    failed_counter_ = m->GetCounter("fast_device_failed_items_total",
                                    "Items failed by kernel/pipeline errors");
    payload_bytes_counter_ = m->GetCounter("fast_device_payload_bytes_total",
                                           "Unique image bytes transferred");
    wire_bytes_counter_ = m->GetCounter(
        "fast_device_wire_bytes_total", "Payload + per-round transaction cost");
    dedup_saved_counter_ = m->GetCounter("fast_device_dedup_bytes_saved_total",
                                         "Duplicate image bytes that rode free");
    queue_depth_gauge_ = m->GetGauge("fast_device_queue_depth",
                                     "Items queued for a device round");
    occupancy_gauge_ = m->GetGauge(
        "fast_device_occupancy", "Live items in the last round / max batch");
  }
  device_ = std::thread([this] { DeviceLoop(); });
}

DeviceExecutor::~DeviceExecutor() { Shutdown(); }

std::shared_ptr<DeviceQueue> DeviceExecutor::OpenQueue(std::uint32_t weight) {
  auto queue = std::make_shared<DeviceQueue>();
  queue->device = this;
  queue->wrr.weight = std::max<std::uint32_t>(1, weight);
  return queue;
}

std::shared_ptr<DeviceQuery> DeviceExecutor::BeginQuery(
    std::shared_ptr<DeviceQueue> queue, const MatchingOrder& order,
    ResultCollector* collector, const CancelToken* cancel) {
  FAST_CHECK(queue->device == this);
  auto query = std::make_shared<DeviceQuery>();
  query->queue = std::move(queue);
  query->order = order;
  query->collector = collector;
  query->cancel = cancel;
  if (collector != nullptr && collector->callback()) {
    query->item_callback = [q = query.get()](std::span<const VertexId> mapping) {
      std::lock_guard<std::mutex> lock(q->callback_mu);
      q->collector->callback()(mapping);
    };
  }
  return query;
}

Status DeviceExecutor::EnqueuePartition(
    const std::shared_ptr<DeviceQuery>& query, CompiledPartition part) {
  WorkItem item{query, std::move(part)};
  {
    std::unique_lock<util::ProfiledMutex> lock(mu_);
    // Back-pressure, not rejection: dropping one partition of a query would
    // silently lose embeddings. The device drains independently of any
    // worker, so this wait always makes progress. 0 = unbounded, matching
    // the other 0-disables knobs.
    space_cv_.wait(lock, [&] {
      return stopping_ || options_.max_queued_items == 0 ||
             total_queued_ < options_.max_queued_items;
    });
    if (stopping_) {
      return Status::FailedPrecondition("device executor is shut down");
    }
    {
      std::lock_guard<std::mutex> qlock(query->mu);
      ++query->outstanding;
    }
    query->queue->items.push_back(std::move(item));
    ++total_queued_;
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(total_queued_));
    }
    WrrActivate(active_, query->queue);
  }
  cv_.notify_one();
  return Status::OK();
}

DeviceQueryResult DeviceExecutor::FinishQuery(
    const std::shared_ptr<DeviceQuery>& query) {
  const auto outstanding = [&] {
    std::lock_guard<std::mutex> qlock(query->mu);
    return query->outstanding;
  };
  {
    // Match open items of any query while this one has items outstanding;
    // sleep until a round opens with an item to spare or this query's last
    // item is folded.
    std::unique_lock<util::ProfiledMutex> lock(claim_mu_);
    while (outstanding() > 0) {
      if (ClaimAndMatch(lock)) continue;
      query->waiting = true;
      waiters_.push_back(query.get());
      query->wake.wait(lock, [&] { return !query->waiting; });
    }
  }
  DeviceQueryResult result;
  {
    std::lock_guard<std::mutex> qlock(query->mu);
    result = std::move(query->result);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  return result;
}

void DeviceExecutor::HoldRounds() {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  rounds_held_ = true;
}

void DeviceExecutor::ReleaseRounds() {
  {
    std::lock_guard<util::ProfiledMutex> lock(mu_);
    rounds_held_ = false;
  }
  cv_.notify_all();
}

void DeviceExecutor::Shutdown() {
  {
    std::lock_guard<util::ProfiledMutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  if (device_.joinable()) device_.join();
}

void DeviceExecutor::DeviceLoop() {
  obs::Profiler::RegisterCurrentThread("device", obs::ThreadKind::kDevice);
  std::deque<std::unique_ptr<Round>> unretired;  // oldest first
  while (true) {
    // Open rounds up to the depth. With none in flight, wait for one as
    // before; otherwise take one only if a full round is already queued.
    std::vector<Round*> opened;
    while (unretired.size() < kRoundDepth) {
      std::vector<WorkItem> items;
      {
        FAST_PROF_STAGE("pop_round");
        items = PopRound(/*wait=*/unretired.empty());
      }
      if (items.empty()) break;
      FAST_PROF_STAGE("round");
      unretired.push_back(OpenRound(std::move(items)));
      opened.push_back(unretired.back().get());
    }
    if (unretired.empty()) return;  // stopping and drained

    FAST_PROF_STAGE("round");
    Round& oldest = *unretired.front();
    {
      std::unique_lock<util::ProfiledMutex> lock(claim_mu_);
      std::size_t spare = 0;  // opened items the device thread leaves
      for (Round* round : opened) {
        if (round->open_items.empty()) continue;
        open_.push_back(round);
        spare += round->open_items.size();
      }
      // The device thread claims only the oldest round's items, so it is free
      // to retire that round the moment its last item matches. It takes one
      // of the just-opened items only if the oldest round is among them; wake
      // one sleeper per other.
      if (!opened.empty() && opened.front() == &oldest &&
          !oldest.open_items.empty()) {
        --spare;
      }
      for (; spare > 0 && !waiters_.empty(); --spare) {
        Wake(waiters_.size() - 1);
      }
      while (ClaimAndMatch(lock, &oldest)) {
      }
      done_cv_.wait(lock, [&] { return oldest.unmatched == 0; });
    }
    RetireRound(oldest);
    unretired.pop_front();
  }
}

std::vector<DeviceExecutor::WorkItem> DeviceExecutor::PopRound(bool wait) {
  std::unique_lock<util::ProfiledMutex> lock(mu_);
  const std::size_t max_batch = std::max<std::size_t>(1, options_.max_batch_items);
  if (!wait && ((rounds_held_ && !stopping_) || total_queued_ < max_batch)) {
    return {};
  }
  cv_.wait(lock,
           [&] { return stopping_ || (!rounds_held_ && total_queued_ > 0); });
  if (total_queued_ == 0) return {};
  // Hold the batch open for stragglers from other in-flight queries — this
  // window is what turns light concurrent load into >1 query per round.
  // Skipped when stopping: drain as fast as possible.
  if (!stopping_ && options_.batch_window_seconds > 0.0 &&
      total_queued_ < max_batch) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.batch_window_seconds));
    while (!stopping_ && total_queued_ < max_batch) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
  }
  // Deficit-weighted round robin over the backlogged queues — the shared
  // discipline of util/wrr.h, exactly as TenantRouter dispatches requests.
  std::vector<WorkItem> round;
  round.reserve(std::min(max_batch, total_queued_));
  while (round.size() < max_batch && total_queued_ > 0) {
    FAST_CHECK(!active_.empty());
    round.push_back(WrrPop(
        active_,
        [](DeviceQueue& q) {
          FAST_CHECK(!q.items.empty());
          WorkItem item = std::move(q.items.front());
          q.items.pop_front();
          return item;
        },
        [](const DeviceQueue& q) { return q.items.empty(); }));
    --total_queued_;
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<double>(total_queued_));
  }
  space_cv_.notify_all();
  return round;
}

std::unique_ptr<DeviceExecutor::Round> DeviceExecutor::OpenRound(
    std::vector<WorkItem> items) {
  auto round = std::make_unique<Round>();
  Round& r = *round;
  r.items = std::move(items);
  r.open_seconds = obs::ProcessUptimeSeconds();

  // --- Mid-batch cancellation probe: an item whose token tripped (or whose
  // query already failed) is skipped before it costs any transfer bytes. ---
  r.outcomes.resize(r.items.size());
  for (std::size_t i = 0; i < r.items.size(); ++i) {
    DeviceQuery& q = *r.items[i].query;
    bool query_ok;
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      query_ok = q.result.status.ok();
    }
    if (query_ok && (q.cancel == nullptr || !q.cancel->Cancelled())) {
      r.open_items.push_back(i);
    } else {
      r.outcomes[i].status =
          Status::DeadlineExceeded("device work item cancelled before matching");
    }
  }
  const std::size_t n_live = r.open_items.size();

  // --- Transfer phase: ONE DMA transaction for the whole round. A partition
  // shared by several items (queries replaying one cached plan) crosses the
  // bus once; the duplicates ride free. A round holds at most max_batch
  // items, so a linear scan finds the duplicates. ---
  r.contributed.assign(r.items.size(), 0);
  std::vector<const Cst*> sent;
  sent.reserve(n_live);
  for (const std::size_t i : r.open_items) {
    const Cst* cst = r.items[i].part.cst.get();
    const std::size_t bytes = r.items[i].part.wire_bytes;
    if (std::find(sent.begin(), sent.end(), cst) == sent.end()) {
      sent.push_back(cst);
      r.payload += bytes;
      r.contributed[i] = bytes;
    } else {
      r.saved += bytes;
    }
  }
  if (n_live > 0) {
    r.wire = r.payload + options_.transfer_overhead_bytes;
    r.pcie_s = options_.fpga.PcieSeconds(static_cast<double>(r.wire));
    r.overhead_share = static_cast<double>(options_.transfer_overhead_bytes) /
                       static_cast<double>(n_live);
    r.id = ++round_seq_;
  }

  // --- Matching phase, once published: the device thread and any worker
  // blocked in FinishQuery claim the live items, each item on one thread
  // into its own collector. Largest image first: matching time grows with
  // the partition, so the round's slowest items start first instead of
  // trailing it. Outcomes still fold in round order. ---
  std::stable_sort(r.open_items.begin(), r.open_items.end(),
                   [&](std::size_t a, std::size_t b) {
                     return r.items[a].part.wire_bytes >
                            r.items[b].part.wire_bytes;
                   });
  r.unmatched = n_live;
  return round;
}

void DeviceExecutor::RetireRound(Round& round) {
  // Outcomes were staged so the round's stats publish BEFORE any query is
  // notified: a caller returning from FinishQuery must already see its rounds
  // in stats(). Per-round sums add in round order, whichever thread matched
  // an item.
  std::vector<const DeviceQuery*> round_queries;  // distinct, executed
  double round_kernel = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < round.items.size(); ++i) {
    const ItemOutcome& out = round.outcomes[i];
    if (out.status.ok()) {
      ++executed;
      const DeviceQuery* q = round.items[i].query.get();
      if (std::find(round_queries.begin(), round_queries.end(), q) ==
          round_queries.end()) {
        round_queries.push_back(q);
      }
      round_kernel += out.kernel_seconds;
    } else if (out.status.code() == StatusCode::kDeadlineExceeded) {
      ++cancelled;
    } else {
      // A genuine kernel/pipeline error, not a deadline: keep it out of the
      // cancellation count so Summary() does not mask device failures.
      ++failed;
    }
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (round.id > 0) {
      stats_.rounds = round.id;
      // Two rounds may be open at once, but the device track shows one span
      // at a time: a round's span starts no earlier than the previous span's
      // end, i.e. the previous round's retirement.
      const double now = obs::ProcessUptimeSeconds();
      obs::TimelineRound tr;
      tr.round = round.id;
      tr.start_seconds = std::max(round.open_seconds, last_span_end_);
      tr.duration_seconds = now - tr.start_seconds;
      last_span_end_ = now;
      tr.pcie_sim_seconds = round.pcie_s;
      tr.kernel_sim_seconds = round_kernel;
      tr.items = executed;
      tr.queries = round_queries.size();
      tr.wire_bytes = round.wire;
      recent_rounds_.push_back(tr);
      while (recent_rounds_.size() > kRecentRoundsCapacity) {
        recent_rounds_.pop_front();
      }
    }
    stats_.items += executed;
    stats_.cancelled_items += cancelled;
    stats_.failed_items += failed;
    stats_.payload_bytes += round.payload;
    stats_.wire_bytes += round.wire;
    stats_.dedup_bytes_saved += round.saved;
    if (executed > 0) {
      stats_.sum_round_queries += round_queries.size();
      stats_.max_items_per_round =
          std::max(stats_.max_items_per_round, executed);
      stats_.max_queries_per_round = std::max<std::uint64_t>(
          stats_.max_queries_per_round, round_queries.size());
    }
    stats_.pcie_seconds += round.pcie_s;
    stats_.kernel_seconds += round_kernel;
  }

  // Mirror the round into the process-wide registry (relaxed atomics; no
  // lock shared with the stats block above).
  if (items_counter_ != nullptr) {
    if (round.id > 0) rounds_counter_->Increment();
    items_counter_->Increment(executed);
    cancelled_counter_->Increment(cancelled);
    failed_counter_->Increment(failed);
    payload_bytes_counter_->Increment(round.payload);
    wire_bytes_counter_->Increment(round.wire);
    dedup_saved_counter_->Increment(round.saved);
    occupancy_gauge_->Set(
        static_cast<double>(executed) /
        static_cast<double>(std::max<std::size_t>(1, options_.max_batch_items)));
  }

  // --- Reassembly: fold each item into its query, in round order, and
  // wake the waiters once a query has no items left. ---
  FAST_PROF_STAGE("reassembly");
  std::vector<DeviceQuery*> finished;
  for (std::size_t i = 0; i < round.items.size(); ++i) {
    DeviceQuery& q = *round.items[i].query;
    ItemOutcome& out = round.outcomes[i];
    const double pcie_share =
        round.wire > 0 && out.status.ok()
            ? round.pcie_s *
                  ((static_cast<double>(round.contributed[i]) +
                    round.overhead_share) /
                   static_cast<double>(round.wire))
            : 0.0;
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      // First failure wins. A failed query's later items were skipped at
      // their round's opening, or, if that round opened before the failure
      // was folded, matched and are dropped here.
      if (!out.status.ok()) {
        if (q.result.status.ok()) q.result.status = std::move(out.status);
      } else if (q.result.status.ok()) {
        if (q.collector != nullptr) q.collector->Merge(out.collector);
        q.result.counters += out.run.counters;
        q.result.embeddings += out.run.embeddings;
        q.result.kernel_seconds += out.kernel_seconds;
        q.result.pcie_seconds += pcie_share;
        q.result.dma_bytes += round.contributed[i] +
                              static_cast<std::uint64_t>(round.overhead_share);
        ++q.result.items;
        if (q.result.first_round == 0) q.result.first_round = round.id;
        q.result.last_round = round.id;
      }
      if (--q.outstanding == 0) finished.push_back(&q);
    }
  }
  if (!finished.empty()) {
    std::lock_guard<util::ProfiledMutex> lock(claim_mu_);
    for (DeviceQuery* q : finished) {
      if (!q->waiting) continue;
      Wake(static_cast<std::size_t>(
          std::find(waiters_.begin(), waiters_.end(), q) - waiters_.begin()));
    }
  }
}

void DeviceExecutor::Wake(std::size_t waiter) {
  DeviceQuery* q = waiters_[waiter];
  waiters_[waiter] = waiters_.back();
  waiters_.pop_back();
  q->waiting = false;
  q->wake.notify_one();
}

DeviceExecutor::ItemOutcome DeviceExecutor::MatchItem(const WorkItem& item) const {
  const FpgaConfig& fpga = options_.fpga;
  const Cst& part = *item.part.cst;
  const DeviceQuery& q = *item.query;
  ItemOutcome out;
  if (q.collector != nullptr) {
    out.collector = ResultCollector(q.collector->store_limit());
  }
  if (q.item_callback) out.collector.SetCallback(q.item_callback);

  thread_local std::vector<RoundWork> trace;
  trace.clear();
  StatusOr<KernelRunResult> run = [&] {
    FAST_PROF_STAGE("kernel");
    return RunKernel(part, q.order, fpga, &out.collector, &trace, q.cancel);
  }();
  if (!run.ok()) {
    out.status = run.status();
    return out;
  }
  out.run = std::move(*run);
  // Matching-phase cycles: per-round pipeline timing over the trace.
  StatusOr<PipelineSimResult> sim = [&] {
    FAST_PROF_STAGE("pipeline_sim");
    return SimulatePipeline(fpga, options_.variant, trace, q.cancel);
  }();
  if (!sim.ok()) {
    out.status = sim.status();
    return out;
  }
  double cycles = sim->cycles;
  cycles += ResultFlushCycles(fpga, out.run.embeddings, part.NumQueryVertices());
  if (options_.variant != FastVariant::kDram) {
    // The image sits in card DRAM after the shared transfer; each matching
    // pass still DMAs it into BRAM (dedup shares the PCIe hop, not the BRAM
    // load).
    cycles += CstLoadCycles(fpga, part.SizeWords());
  }
  out.kernel_seconds = fpga.CyclesToSeconds(cycles);
  return out;
}

bool DeviceExecutor::ClaimAndMatch(std::unique_lock<util::ProfiledMutex>& lock,
                                   const Round* only) {
  if (open_.empty() || (only != nullptr && open_.front() != only)) return false;
  Round& round = *open_.front();
  const std::size_t i = round.open_items[round.next_claim++];
  if (round.next_claim == round.open_items.size()) open_.pop_front();
  lock.unlock();
  round.outcomes[i] = MatchItem(round.items[i]);
  lock.lock();
  if (--round.unmatched == 0) done_cv_.notify_one();
  return true;
}

DeviceStats DeviceExecutor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t DeviceExecutor::queue_depth() const {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  return total_queued_;
}

std::vector<obs::TimelineRound> DeviceExecutor::recent_rounds() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return {recent_rounds_.begin(), recent_rounds_.end()};
}

DevicePlacement::DevicePlacement(const std::shared_ptr<DeviceQueue>& queue)
    : CardPlacement(queue->device->options().fpga,
                    queue->device->options().variant, obs::Span::kDeviceWait,
                    obs::Span::kReassembly),
      device_(*queue->device),
      queue_(queue) {}

void DevicePlacement::Begin(const MatchingOrder& order,
                            ResultCollector* collector,
                            const CancelToken* cancel, FastRunResult* result) {
  // The collector lives on the pipeline's stack. Until FinishQuery, the
  // device thread merges retired items into it and its callback runs, one
  // call at a time, on whichever thread matches an item; FinishQuery
  // synchronizes the handoff back.
  session_ = device_.BeginQuery(queue_, order, collector, cancel);
  result_ = result;
}

Status DevicePlacement::Drain() {
  DeviceQueryResult reaped = device_.FinishQuery(session_);
  session_.reset();
  result_->counters = reaped.counters;
  result_->embeddings = reaped.embeddings;
  result_->kernel_seconds = reaped.kernel_seconds;
  result_->pcie_seconds = reaped.pcie_seconds;
  result_->dma_bytes = reaped.dma_bytes;
  result_->fpga_partitions = reaped.items;
  return reaped.status;
}

}  // namespace fast::device
