#ifndef FAST_SERVICE_MATCH_SERVICE_H_
#define FAST_SERVICE_MATCH_SERVICE_H_

// Single-graph query serving over the FAST pipeline.
//
//   clients ── Submit ──▶ tenant::TenantRouter ──▶ worker pool ──▶ GraphState
//                         (one tenant, id "")
//
// MatchService is a thin facade: one private tenant::TenantRouter holding
// exactly one tenant, whose id is the empty SessionKey. Admission control,
// the queue, the worker pool, outcome classification, cost charging and
// delivery all live in the router (tenant/tenant_router.h); per-graph state
// (epoch-snapshotted graph, plan cache, execution and remap) lives in
// the tenant's GraphState (service/graph_state.h). This class keeps the
// historical single-graph API and implements the transport-agnostic
// Frontend interface (service/frontend.h); the session key is advisory
// here (one graph serves them all), and accounting labels every request
// with the default tenant.
//
// Admission control: Submit never blocks — a full queue rejects with
// RESOURCE_EXHAUSTED before the query is canonicalized. Per-request
// deadlines are enforced at dispatch (a request whose deadline passed while
// queued completes with DEADLINE_EXCEEDED without running) and *during* the
// run: the worker arms a cooperative cancellation token with the remaining
// deadline, and the matching loops abort mid-run when it expires
// (util/cancel.h).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/device_executor.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "obs/request_obs.h"
#include "query/query_graph.h"
#include "service/frontend.h"
#include "service/graph_state.h"
#include "service/plan_cache.h"
#include "tenant/tenant_router.h"
#include "util/latency_histogram.h"
#include "util/status.h"

namespace fast::service {

// Pool knobs (CommonServingOptions) + the single graph's plan-cache budget
// (PlanCacheOptions); see service/frontend.h for every field. The defaulted
// constructor keeps this a non-aggregate on purpose — set fields by name,
// positional brace-initialization does not compile.
struct ServiceOptions : CommonServingOptions, PlanCacheOptions {
  ServiceOptions() = default;
};
static_assert(!std::is_aggregate_v<ServiceOptions>,
              "ServiceOptions must not be positionally brace-initializable");

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // finished OK
  std::uint64_t failed = 0;     // pipeline errors
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;   // deadline passed while queued
  std::uint64_t cancelled_midrun = 0;    // deadline tripped during the run
  std::uint64_t epoch = 0;        // currently published snapshot epoch
  std::uint64_t graph_swaps = 0;  // snapshots published after the first
  PlanCacheStats cache;
  LatencyHistogram latency;  // Submit -> completion, successful requests
  double uptime_seconds = 0.0;
  bool device_mode = false;
  device::DeviceStats device;  // zero unless device_mode

  double QueriesPerSecond() const {
    return uptime_seconds > 0.0 ? static_cast<double>(completed) / uptime_seconds
                                : 0.0;
  }
  std::string Summary() const;
};

class MatchService : public Frontend {
 public:
  using RequestId = Frontend::RequestId;

  // Takes ownership of the data graph and publishes it as epoch 1. Workers
  // start immediately.
  MatchService(Graph graph, ServiceOptions options = {});

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  // Frontend: the session key is advisory — every session is served from
  // this service's one graph. Fails fast with RESOURCE_EXHAUSTED when the
  // queue is full, INVALID_ARGUMENT for malformed queries, and
  // FAILED_PRECONDITION after Shutdown.
  StatusOr<RequestId> Submit(const SessionKey& session, const QueryGraph& q,
                             RequestOptions opts = {}) override;
  // Single-graph convenience: the historical one-graph signature.
  StatusOr<RequestId> Submit(const QueryGraph& q, RequestOptions opts = {}) {
    return Submit(SessionKey(), q, std::move(opts));
  }

  // Blocks until the request completes. NOT_FOUND (outer status) for
  // unknown, already-waited, or callback-mode ids.
  StatusOr<RequestResult> Wait(RequestId id) override {
    return router_.Wait(id);
  }

  using Frontend::SubmitAndWait;
  // Submit + Wait; the Status covers both admission and execution.
  StatusOr<RequestResult> SubmitAndWait(const QueryGraph& q,
                                        RequestOptions opts = {}) {
    return SubmitAndWait(SessionKey(), q, std::move(opts));
  }

  // Snapshot publication — see GraphState for the epoch semantics.
  std::uint64_t SwapGraph(Graph next);
  StatusOr<std::uint64_t> ApplyDelta(const GraphDelta& delta);

  // Stops admission, drains queued requests, joins workers. Idempotent;
  // also run by the destructor.
  void Shutdown() override { router_.Shutdown(); }

  // A view over the router's stats: its counters and latency plus the one
  // tenant's epoch, swap count and plan cache.
  ServiceStats stats() const;

  // The currently published snapshot. The returned graph stays valid for as
  // long as the caller holds the shared_ptr, across any number of swaps.
  GraphSnapshot snapshot() const;
  std::uint64_t epoch() const { return snapshot().epoch; }

  std::size_t num_workers() const { return router_.num_workers(); }

  // Requests queued but not yet dispatched (periodic-sampler probe).
  std::size_t queue_depth() const override { return router_.queue_depth(); }

  // Admin-plane surfaces (service/frontend.h).
  const obs::RequestObs* request_obs() const override {
    return router_.request_obs();
  }
  bool ready() const override { return router_.ready(); }
  std::vector<obs::TimelineRound> device_rounds() const override {
    return router_.device_rounds();
  }

  // Newest-last rings of retained traces (empty when tracing is off).
  std::vector<std::shared_ptr<const obs::CompletedTrace>> recent_traces() const {
    return router_.recent_traces();
  }
  std::vector<std::shared_ptr<const obs::CompletedTrace>> slow_traces() const {
    return router_.slow_traces();
  }

 private:
  tenant::TenantRouter router_;
};

}  // namespace fast::service

#endif  // FAST_SERVICE_MATCH_SERVICE_H_
