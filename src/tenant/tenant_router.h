#ifndef FAST_TENANT_TENANT_ROUTER_H_
#define FAST_TENANT_TENANT_ROUTER_H_

// Multi-graph tenancy: many data graphs served by ONE worker pool.
//
//                         ┌────────────────────────────────────────┐
//   Submit(tenant, q) ──▶ │ registry: tenant id ─▶ GraphState      │
//          │              │   (epoch snapshot + plan cache)        │
//     admission:          └────────────────────────────────────────┘
//     global bound +                        │
//     per-tenant quota     per-tenant FIFO queues (one per tenant)
//          │                                │
//          └──────▶ weighted round-robin dequeue ──▶ shared workers
//                                                         │
//                                    capture THAT tenant's snapshot,
//                                    execute, per-tenant p50/p99 stats
//
// TenantRouter is the serving pool: a registry of tenants (each a
// GraphState — an epoch-snapshotted graph + epoch-tagged plan cache, see
// service/graph_state.h) in front of a single shared worker pool. It owns
// the whole request lifecycle — admission, queueing, dispatch, outcome
// classification, cost charging and delivery — for every frontend:
// service::MatchService is this router holding exactly one tenant. Requests
// carry a tenant id; dispatch captures that tenant's current snapshot, so
// per-tenant SwapGraph/ApplyDelta keep working independently and a swap on
// tenant A is invisible to tenant B.
//
// Admission and fairness:
//   - a process-wide bound on the total queued requests (global admission
//     control — RESOURCE_EXHAUSTED when the process is saturated). A full
//     queue is rejected before the query is canonicalized;
//   - an optional per-tenant quota on queued requests, so one hot tenant
//     cannot occupy the whole global queue;
//   - deficit-style weighted round-robin dequeue: workers serve up to
//     `weight` consecutive requests per tenant per cycle over the backlogged
//     tenants, so dispatch slots — not queue arrival order — are what a
//     tenant's weight buys. A hot tenant saturating its queue cannot starve
//     a cold one.
//
// A tenant is resolved once: AddTenant opens the id's account slot
// (obs/accounting.h) and, in device mode, its device fairness queue, and the
// registry entry keeps both, so Submit's registry lookup is a request's only
// tenant-id lookup.
//
// Tenants can be added and removed at runtime. RemoveTenant stops new
// admissions immediately and then drains: requests already queued or
// dispatched finish normally on the snapshots they capture (the removed
// tenant's state stays alive via shared_ptr until the last request drops
// it); RemoveTenant returns once the tenant has no queued or in-flight work.
// The device queue goes with the tenant; the slot stays with the router.
//
// Deadlines are checked at dispatch, and enforced mid-run via a cooperative
// cancellation token armed with the remaining deadline.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/driver.h"
#include "device/device_executor.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "obs/request_obs.h"
#include "query/query_graph.h"
#include "service/frontend.h"
#include "service/graph_state.h"
#include "util/profiled_mutex.h"
#include "util/status.h"
#include "util/timer.h"

namespace fast::tenant {

using service::GraphSnapshot;
using service::RequestOptions;
using service::RequestResult;

// Per-tenant knobs: the tenant graph's plan-cache budget (PlanCacheOptions,
// see service/frontend.h) plus admission quota and WRR weight. Non-aggregate
// on purpose — set fields by name.
struct TenantOptions : service::PlanCacheOptions {
  TenantOptions() = default;

  // Per-tenant admission quota: max requests queued (not yet dispatched)
  // for this tenant. 0 = bounded only by the global queue capacity.
  std::size_t max_queued = 0;

  // Weighted round-robin weight: consecutive dispatch slots this tenant
  // gets per cycle over the backlogged tenants. 0 is treated as 1. In
  // device mode this doubles as the tenant's device-round weight.
  std::uint32_t weight = 1;
};
static_assert(!std::is_aggregate_v<TenantOptions>,
              "TenantOptions must not be positionally brace-initializable");

// The shared pool/queue/obs knobs (service::CommonServingOptions — see
// service/frontend.h for every field) are the whole configuration: the
// router adds nothing pool-level of its own; per-graph knobs live in
// TenantOptions. In device mode each tenant's WRR weight doubles as its
// device-round weight, and queue_capacity bounds the total queued requests
// across all tenants.
struct RouterOptions : service::CommonServingOptions {
  RouterOptions() = default;
};
static_assert(!std::is_aggregate_v<RouterOptions>,
              "RouterOptions must not be positionally brace-initializable");

// The outcome counts of TenantStats are the account row in the tenant's
// slot (obs/accounting.h); RouterStats sums every row, removed tenants
// included.
struct TenantStats : obs::OutcomeCounts {
  std::string id;
  std::uint32_t weight = 1;
  std::uint64_t epoch = 0;
  std::uint64_t graph_swaps = 0;
  service::PlanCacheStats cache;
};

struct RouterStats : obs::OutcomeCounts {
  std::size_t num_tenants = 0;
  double uptime_seconds = 0.0;
  bool device_mode = false;
  device::DeviceStats device;  // zero unless device_mode
  std::vector<TenantStats> tenants;  // sorted by tenant id

  double QueriesPerSecond() const {
    return uptime_seconds > 0.0 ? static_cast<double>(completed) / uptime_seconds
                                : 0.0;
  }
  std::string Summary() const;
};

class TenantRouter : public service::Frontend {
 public:
  using RequestId = service::Frontend::RequestId;

  // Workers start immediately; tenants are added afterwards (or at any
  // later point).
  explicit TenantRouter(RouterOptions options = {});
  ~TenantRouter() override;

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  // Registers `id` serving `graph` (published as that tenant's epoch 1).
  // ALREADY_EXISTS is reported as INVALID_ARGUMENT; FAILED_PRECONDITION
  // after Shutdown.
  Status AddTenant(const std::string& id, Graph graph, TenantOptions opts = {});

  // Deregisters `id`: new Submits fail with NOT_FOUND immediately; requests
  // already admitted drain normally on their captured snapshots. Blocks
  // until the tenant has no queued or in-flight requests. The tenant's
  // counters stay in the router totals, and a tenant re-added under the same
  // id continues them and its SLO windows: AddTenant gets the id's old slot
  // back.
  Status RemoveTenant(const std::string& id);

  // Frontend: the session key is the tenant id. Canonicalizes q and
  // enqueues it for that tenant. NOT_FOUND for an unknown tenant,
  // RESOURCE_EXHAUSTED when the global queue or the tenant's quota is full,
  // INVALID_ARGUMENT for malformed queries, FAILED_PRECONDITION after
  // Shutdown.
  StatusOr<RequestId> Submit(const service::SessionKey& tenant_id,
                             const QueryGraph& q,
                             RequestOptions opts = {}) override;

  // Blocks until the request completes. NOT_FOUND (outer status) for
  // unknown, already-waited, or callback-mode ids.
  StatusOr<RequestResult> Wait(RequestId id) override;

  // SubmitAndWait(tenant_id, q, opts) is inherited: the Status covers both
  // admission and execution.

  // Per-tenant snapshot publication; other tenants' queries and caches are
  // unaffected. NOT_FOUND for unknown tenants.
  StatusOr<std::uint64_t> SwapGraph(const std::string& tenant_id, Graph next);
  StatusOr<std::uint64_t> ApplyDelta(const std::string& tenant_id,
                                     const GraphDelta& delta);

  // The tenant's currently published snapshot.
  StatusOr<GraphSnapshot> snapshot(const std::string& tenant_id) const;

  // Stops admission, drains all queued requests, joins workers. Idempotent;
  // also run by the destructor.
  void Shutdown() override;

  RouterStats stats() const;
  StatusOr<TenantStats> tenant_stats(const std::string& tenant_id) const;
  std::vector<std::string> tenant_ids() const;
  std::size_t num_workers() const { return workers_.size(); }

  // Requests queued but not yet dispatched, across all tenants
  // (periodic-sampler probe).
  std::size_t queue_depth() const override;

  // Admin-plane surfaces (service/frontend.h). Every registered tenant has
  // published epoch >= 1 by construction, so readiness is "not shut down".
  const obs::RequestObs* request_obs() const override { return &obs_; }
  bool ready() const override {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    return !stopping_;
  }
  std::vector<obs::TimelineRound> device_rounds() const override {
    return device_ != nullptr ? device_->recent_rounds()
                              : std::vector<obs::TimelineRound>{};
  }

  // Newest-last rings of retained traces (empty when tracing is off).
  std::vector<std::shared_ptr<const obs::CompletedTrace>> recent_traces() const {
    return obs_.recent_traces();
  }
  std::vector<std::shared_ptr<const obs::CompletedTrace>> slow_traces() const {
    return obs_.slow_traces();
  }

 private:
  struct Request;
  struct Tenant;

  void WorkerLoop(std::size_t index);
  // Pops the next request under weighted round-robin; blocks until work is
  // available or shutdown has drained everything (then returns nullptr).
  std::shared_ptr<Request> PopNext();
  void Finish(std::shared_ptr<Request> req, RequestResult result,
              std::uint64_t cpu_ns);
  std::shared_ptr<Tenant> FindTenant(const std::string& id) const;
  static TenantStats MakeTenantStats(
      const Tenant& t, const std::vector<obs::AccountSnapshot>& accounts);

  const RouterOptions options_;
  obs::RequestObs obs_;  // its account table is what stats() reads
  Timer uptime_;
  // Id allocation + Wait/callback delivery (service/frontend.h).
  service::RequestLedger ledger_;
  // The shared simulated card (device mode only); created before the workers
  // that submit to it, shut down after they drain.
  std::unique_ptr<device::DeviceExecutor> device_;
  std::vector<std::thread> workers_;

  // Scheduler state: registry, per-tenant queues, the WRR active list, the
  // global queued count and the shutdown flag. Never held while executing a
  // query.
  mutable util::ProfiledMutex sched_mu_{"router_sched"};
  std::condition_variable_any sched_cv_;    // workers: work available / stopping
  std::condition_variable_any drained_cv_;  // RemoveTenant: tenant fully drained
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::list<std::shared_ptr<Tenant>> active_;  // tenants with queued work
  std::size_t total_queued_ = 0;
  bool stopping_ = false;
};

}  // namespace fast::tenant

#endif  // FAST_TENANT_TENANT_ROUTER_H_
