#ifndef FAST_DEVICE_DEVICE_EXECUTOR_H_
#define FAST_DEVICE_DEVICE_EXECUTOR_H_

// Shared device executor: ONE simulated FPGA serving partition work from many
// in-flight queries — across tenants — through a multi-queue front.
//
//   workers ── BeginQuery ──▶ per-tenant item queues (OpenQueue handles)
//      │       EnqueuePartition        │
//      │   (shared CST partitions,     │  deficit-weighted round robin
//      │    pinned to the request's    ▼
//      │    captured epoch)      batch scheduler: coalesce up to max_batch
//      │                         items from MANY queries into one device
//      │                         round (wait batch_window for stragglers)
//      │                               │
//      │                   ┌───────────┴────────────┐
//      │                   │ round: ONE shared PCIe │
//      │                   │ transfer (identical    │
//      │                   │ images cross once),    │
//      │                   │ then match each item   │
//      │                   │ (kernel + cycle model) │
//      │                   │ on whichever thread    │
//      │                   │ claims it              │
//      │                   └───────────┬────────────┘
//      └── FinishQuery ◀── per-query reassembly (counters, embeddings,
//                          simulated kernel/PCIe seconds) ◀──┘
//
// The pipeline's inline placement (core/driver.h) simulates a *private*
// device per request: every query pays its own PCIe transaction and the card
// idles between requests. DevicePlacement (below) feeds this executor
// instead; it is the same pipeline with another placement. This executor is
// the FAST co-design applied across requests: CST partitions from concurrent
// queries — and concurrent tenants — are batched into device rounds, so the
// fixed per-DMA-transaction cost (descriptor setup, doorbell, completion —
// modeled as `transfer_overhead_bytes` of PCIe-equivalent bytes) is paid
// once per ROUND instead of once per partition, and a partition shared by
// several items of a round crosses the bus once. Partitions are shared when
// requests replay one cached CompiledPlan (e.g. two in-flight plan-cache
// hits for the same canonical query shape); two misses of one shape build
// two copies, and each copy is transferred.
//
// Fairness reuses the deficit-weighted round-robin discipline of
// tenant::TenantRouter: each queue (a tenant's, opened once with its weight)
// spends up to `weight` credits per cycle over the backlogged queues, so a
// hot tenant flooding the device with partitions cannot starve a cold
// tenant's round slots.
//
// Deadlines: every item carries its request's CancelToken. The scheduler
// probes it mid-batch — before the item's transfer and again before matching
// — and the kernel/pipeline simulation probe it per round, so an expired
// deadline aborts inside a device round exactly like the CPU path.
//
// Threading: one device thread (the simulated card) forms, transfers and
// retires rounds; any number of workers submit concurrently. A round's items
// are independent search spaces, so their matching is claimable work: once a
// round's transfer phase is done, the device thread and the workers blocked
// in FinishQuery claim open items one at a time (oldest round first, largest
// partition first within a round) and match each into its own collector with
// no lock held. Up to two rounds are open at once (double buffering): while
// the older one's last items match, the next full round is already
// transferred and claimable by the workers. The device thread claims only
// the older round's items, so it retires that round as soon as its last item
// matches. Rounds retire in round order on the device thread, which publishes
// each round's stats and then folds its items into their queries, so every
// simulated sum and every query's stored embeddings come out as if one thread
// had matched the rounds one after another. A query's embedding callback is
// serialized by a per-query mutex but may run on the device thread or on any
// worker. The device thread alone can drain every round, so no worker is
// needed for progress. EnqueuePartition applies back-pressure (blocks) past
// `max_queued_items`. Shutdown drains all queued items, so FinishQuery never
// deadlocks; owners must stop submitting workers before shutting the
// executor down.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_plan.h"
#include "core/driver.h"
#include "core/result_collector.h"
#include "cst/cst.h"
#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "query/matching_order.h"
#include "util/cancel.h"
#include "util/profiled_mutex.h"
#include "util/status.h"

namespace fast::device {

struct DeviceOptions {
  // The simulated card and pipeline variant. Services configure these from
  // their FastRunOptions so the shared device matches the per-worker model.
  FpgaConfig fpga = AlveoU200Config();
  FastVariant variant = FastVariant::kSep;

  // How long the scheduler holds a non-full batch open for stragglers from
  // other queries once the first item is available. 0 = dispatch immediately.
  double batch_window_seconds = 200e-6;

  // Maximum work items (CST partitions) per device round. 1 disables
  // coalescing — the unbatched A/B baseline of bench_batching.
  std::size_t max_batch_items = 8;

  // Back-pressure bound on queued items across all queues; EnqueuePartition
  // blocks (never rejects — a query's partitions cannot be dropped halfway)
  // until the device drains below it. 0 = unbounded.
  std::size_t max_queued_items = 4096;

  // Fixed per-DMA-transaction cost in PCIe-equivalent bytes (descriptor
  // setup, doorbell write, completion interrupt — a few microseconds on real
  // hardware, ~64 KiB at gen3 x16 bandwidth). Paid once per round; this is
  // the quantity batching amortizes.
  std::size_t transfer_overhead_bytes = 64 * 1024;

  // Process-wide metrics registry the executor reports into
  // (fast_device_* counters, queue-depth/occupancy gauges). Non-owning; must
  // outlive the executor. nullptr = no registry reporting.
  obs::MetricsRegistry* metrics = nullptr;
};

struct DeviceStats {
  std::uint64_t rounds = 0;            // rounds with at least one live item
  std::uint64_t items = 0;             // partitions matched on the device
  std::uint64_t cancelled_items = 0;   // skipped or aborted by a deadline
  std::uint64_t failed_items = 0;      // kernel/pipeline errors (not deadlines)
  std::uint64_t queries = 0;           // queries fully reaped (FinishQuery)
  std::uint64_t payload_bytes = 0;     // unique image bytes transferred
  std::uint64_t wire_bytes = 0;        // payload + per-round transaction cost
  std::uint64_t dedup_bytes_saved = 0; // duplicate images that rode free
  std::uint64_t sum_round_queries = 0; // Σ distinct queries per round
  std::uint64_t max_items_per_round = 0;
  std::uint64_t max_queries_per_round = 0;
  double pcie_seconds = 0;    // simulated transfer time across all rounds
  double kernel_seconds = 0;  // simulated matching time across all items

  // Occupancy: how many items / distinct queries an average round carried.
  // QueriesPerRound > 1 is the cross-query amortization actually happening.
  double ItemsPerRound() const {
    return rounds > 0 ? static_cast<double>(items) / static_cast<double>(rounds) : 0.0;
  }
  double QueriesPerRound() const {
    return rounds > 0
               ? static_cast<double>(sum_round_queries) / static_cast<double>(rounds)
               : 0.0;
  }
  std::string Summary() const;
};

// Aggregate outcome of one query's partitions on the device.
struct DeviceQueryResult {
  Status status = Status::OK();  // first item failure (DEADLINE_EXCEEDED, ...)
  KernelCounters counters;
  std::uint64_t embeddings = 0;
  std::size_t items = 0;  // partitions matched
  double kernel_seconds = 0;
  // This query's amortized share of its rounds' transfer time: contributed
  // unique bytes plus an even slice of each round's fixed transaction cost.
  double pcie_seconds = 0;
  // The byte form of the same attribution (what pcie_seconds was computed
  // from), for per-tenant DMA accounting. A fully deduplicated query is
  // charged only its overhead slices.
  std::uint64_t dma_bytes = 0;
  // 1-based sequence numbers of the first/last round that matched an item of
  // this query (0 = none ran). Tests assert fairness on these: a cold
  // tenant's rounds must not trail a hot tenant's whole backlog.
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;
};

// Opaque handles; defined in the .cc.
struct DeviceQueue;  // one fairness queue (a tenant's)
struct DeviceQuery;  // one query session

class DeviceExecutor {
 public:
  explicit DeviceExecutor(DeviceOptions options = {});
  ~DeviceExecutor();

  DeviceExecutor(const DeviceExecutor&) = delete;
  DeviceExecutor& operator=(const DeviceExecutor&) = delete;

  // Opens a fairness queue whose WRR weight — consecutive round slots per
  // cycle over the backlogged queues — is `weight` (0 is treated as 1). The
  // queue lives as long as the handle and the queries begun on it;
  // tenant::TenantRouter opens one per tenant when it registers the tenant.
  std::shared_ptr<DeviceQueue> OpenQueue(std::uint32_t weight = 1);

  // Opens a query session on `queue` (from this executor's OpenQueue).
  // `collector` and `cancel` are borrowed; the caller keeps both alive until
  // FinishQuery returns. Until then the device thread folds matched items
  // into the collector, and its callback runs, one call at a time, on
  // whichever thread matches an item: the device thread or any worker in
  // FinishQuery.
  std::shared_ptr<DeviceQuery> BeginQuery(std::shared_ptr<DeviceQueue> queue,
                                          const MatchingOrder& order,
                                          ResultCollector* collector,
                                          const CancelToken* cancel);

  // Enqueues one CST partition of `query`. The partition is shared, not
  // copied: the device thread and the thread that claims the item read it
  // until the item's round ends, so a cached plan's partitions can be
  // enqueued by any number of queries — and items of one round that share a
  // partition transfer it once. Blocks on back-pressure; FAILED_PRECONDITION
  // after Shutdown. Call from one thread per query.
  Status EnqueuePartition(const std::shared_ptr<DeviceQuery>& query,
                          CompiledPartition part);

  // Blocks until every enqueued partition of `query` has been matched (or
  // skipped by cancellation) and its rounds retired, and returns the
  // aggregate. While it waits, the calling thread matches open items of any
  // query's rounds, oldest round first; it sleeps until a round opens with
  // an item to spare or `query` finishes. Call once, after the last
  // EnqueuePartition.
  DeviceQueryResult FinishQuery(const std::shared_ptr<DeviceQuery>& query);

  // Round-composition hook for deterministic tests: while held, the device
  // thread forms no new round, so every item enqueued before ReleaseRounds
  // is visible to the first round formed after it. Rounds are numbered, and
  // retire, in the order they are formed, with up to two open at once.
  // Shutdown overrides a hold. EnqueuePartition still blocks past
  // max_queued_items, so a holder must not enqueue more than that.
  void HoldRounds();
  void ReleaseRounds();

  // Stops admission, drains every queued item, joins the device thread.
  // Idempotent; also run by the destructor.
  void Shutdown();

  DeviceStats stats() const;
  const DeviceOptions& options() const { return options_; }
  // Items currently queued (not yet popped into a round) — the periodic
  // sampler polls this for the fast_device_queue_depth time series.
  std::size_t queue_depth() const;

  // Oldest-first ring of recent rounds on the ProcessUptimeSeconds axis —
  // the timeline exporter's synthetic "device" track; spans never overlap
  // (see obs::TimelineRound). Bounded (oldest evicted); only rounds with at
  // least one live item are retained.
  std::vector<obs::TimelineRound> recent_rounds() const;

 private:
  friend struct DeviceQueue;
  struct WorkItem;
  struct ItemOutcome;
  struct Round;

  void DeviceLoop();
  // Pops the next round under WRR. With `wait`, blocks for work and holds a
  // non-full batch open for the window; empty result = stopping and drained.
  // Without, returns a round only if a full one is queued (else empty).
  std::vector<WorkItem> PopRound(bool wait);
  // Runs a popped round's cancellation probe and transfer phase and numbers
  // it; the caller publishes its live items for claiming.
  std::unique_ptr<Round> OpenRound(std::vector<WorkItem> items);
  // Once every live item has matched: publishes the round's stats, then folds
  // its items into their queries in round order. Device thread only.
  void RetireRound(Round& round);
  // Matches one item on the calling thread into its own collector: the
  // kernel, then the cycle model over its round trace. Takes no lock.
  ItemOutcome MatchItem(const WorkItem& item) const;
  // With claim_mu_ held by `lock`: claims the oldest open round's next item
  // and matches it, unlocked meanwhile. False when no item is open, or when
  // `only` is set and the oldest open round is another.
  bool ClaimAndMatch(std::unique_lock<util::ProfiledMutex>& lock,
                     const Round* only = nullptr);
  // With claim_mu_ held: unlists waiters_[waiter] and wakes its FinishQuery.
  void Wake(std::size_t waiter);

  const DeviceOptions options_;

  // Scheduler state: the queues' items and WRR state, the active list, the
  // global queued count.
  // Never held while matching. Contention-profiled as "device_sched" (the
  // condition variables are _any variants so they can wait on it).
  mutable util::ProfiledMutex mu_{"device_sched"};
  std::condition_variable_any cv_;        // device: work available / stopping
  std::condition_variable_any space_cv_;  // submitters: back-pressure released
  std::list<std::shared_ptr<DeviceQueue>> active_;  // queues with pending items
  std::size_t total_queued_ = 0;
  bool rounds_held_ = false;
  bool stopping_ = false;

  // The open rounds' matching phase: rounds with an unclaimed item, oldest
  // first, claimed by the device thread and by workers blocked in
  // FinishQuery. Contention-profiled as "device_claim".
  util::ProfiledMutex claim_mu_{"device_claim"};
  std::condition_variable_any done_cv_;  // device: a round's last item matched
  std::vector<DeviceQuery*> waiters_;    // sleeping in FinishQuery
  std::deque<Round*> open_;

  mutable std::mutex stats_mu_;
  DeviceStats stats_;
  std::deque<obs::TimelineRound> recent_rounds_;  // guarded by stats_mu_
  std::uint64_t round_seq_ = 0;     // device thread only
  double last_span_end_ = 0.0;      // device thread only: timeline span end

  // Registry metrics bound once at construction (null without a registry).
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* items_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* payload_bytes_counter_ = nullptr;
  obs::Counter* wire_bytes_counter_ = nullptr;
  obs::Counter* dedup_saved_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* occupancy_gauge_ = nullptr;

  std::thread device_;  // last member: joins before state is destroyed
};

// The shared-device placement of the pipeline (core/driver.h): every card
// partition of the run is enqueued on `queue`'s executor as it is emitted or
// replayed, batched with other requests' partitions into device rounds and
// timed per round, and Drain blocks until the device has matched them all.
// The device's FpgaConfig/variant replace options.fpga/options.variant, and
// the embedding callback is serialized per request but may run on the device
// thread or on any worker waiting in Drain. Wall spans:
// `device_wait` over partitioning, enqueueing and the wait, then
// `reassembly` over the host share and composition. `queue` is borrowed
// for the placement's lifetime.
class DevicePlacement : public CardPlacement {
 public:
  explicit DevicePlacement(const std::shared_ptr<DeviceQueue>& queue);

  void Begin(const MatchingOrder& order, ResultCollector* collector,
             const CancelToken* cancel, FastRunResult* result) override;
  Status Place(const CompiledPartition& part) override {
    return device_.EnqueuePartition(session_, part);
  }
  Status Drain() override;

 private:
  DeviceExecutor& device_;
  const std::shared_ptr<DeviceQueue>& queue_;
  std::shared_ptr<DeviceQuery> session_;
  FastRunResult* result_ = nullptr;
};

}  // namespace fast::device

#endif  // FAST_DEVICE_DEVICE_EXECUTOR_H_
