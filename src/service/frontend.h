#ifndef FAST_SERVICE_FRONTEND_H_
#define FAST_SERVICE_FRONTEND_H_

// Transport-agnostic request-session surface.
//
// tenant::TenantRouter (many graphs behind one shared pool) owns the one
// session lifecycle: admit a query, queue it, execute it on a captured
// snapshot, deliver a RequestResult. MatchService is a facade over a router
// holding exactly one graph. Frontend is that lifecycle as one interface, so
// everything in front of a service — the CLI replay loops, the serving
// benches, and the wire protocol in src/net/ — is written once against
// Frontend and runs unchanged over either backend:
//
//     callers / net::WireServer / benches
//                  │  Submit(SessionKey, QueryGraph, RequestOptions)
//                  ▼
//            ┌──────────┐     MatchService   (session key ignored: one graph)
//            │ Frontend │ ◀──
//            └──────────┘     TenantRouter   (session key = tenant id)
//
// Sessions: a SessionKey names the graph a request is routed to. It is the
// tenant id for TenantRouter (NOT_FOUND when unknown) and advisory for
// MatchService, which serves every session from its one graph. The wire
// protocol carries the session key in every frame header as the routing key.
//
// Delivery: exactly one of
//   - blocking: Wait(id) returns the result once; a second Wait (or an
//     unknown id) is NOT_FOUND on the *outer* StatusOr, so a caller can
//     never mistake the sentinel for a real result (RequestResult::status
//     still carries the execution outcome: OK, DEADLINE_EXCEEDED, ...);
//   - callback: a RequestOptions::on_complete registered at Submit is
//     invoked exactly once on the finishing worker thread; such requests are
//     never waitable (Wait returns NOT_FOUND). This is the asynchronous mode
//     the wire server uses — no connection thread ever blocks in Wait.
// Streamed embeddings flow through RequestOptions::on_embedding in both
// modes (the wire server turns them into EMBEDDING frames).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/driver.h"
#include "device/device_executor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "obs/slo.h"
#include "query/query_graph.h"
#include "service/graph_state.h"
#include "util/status.h"

namespace fast::service {

// Names the graph a request is routed to: the tenant id under TenantRouter,
// advisory (any value accepted) under MatchService. Empty = the default
// session.
using SessionKey = std::string;

// ---- Shared serving options. ----
//
// ServiceOptions, RouterOptions, and TenantOptions used to each re-declare
// their overlapping fields; the shared fields now live in exactly one place
// and the per-backend structs *inherit* them, so every existing
// `options.num_workers = ...` call site still compiles. All three structs are
// deliberately NOT aggregates (the defaulted constructors below are
// user-declared, which in C++20 disqualifies aggregate initialization):
// positional brace-initialization silently mis-assigning fields across a
// refactor is a bug class this family has been bitten by before, so it is a
// compile error here — set fields by name.

struct CommonServingOptions {
  CommonServingOptions() = default;

  // Worker threads executing the pipeline; 0 = hardware concurrency.
  std::size_t num_workers = 0;

  // Bound of the (global) request queue; admission beyond it rejects the
  // Submit with RESOURCE_EXHAUSTED.
  std::size_t queue_capacity = 256;

  // Default per-request deadline in seconds; 0 = no deadline.
  double default_deadline_seconds = 0.0;

  // Base pipeline configuration (variant, device model, cpu-share δ, order
  // policy). Per-request fields override its store_limit/embedding_callback.
  FastRunOptions run;

  // Shared-device mode (device/device_executor.h): workers decompose each
  // request into CST-partition work items on ONE device executor, which
  // batches items from concurrent requests (and tenants) into shared device
  // rounds. The executor simulates run.fpga under run.variant; with
  // run.cpu_share_delta > 0 the worker keeps the Alg. 3 host share and
  // matches it once the device has drained the request's partitions.
  bool device_mode = false;
  device::DeviceOptions device;

  // ---- Observability (src/obs/). ----
  // Process-wide metrics registry every component reports into. Non-owning;
  // must outlive the service. nullptr = registry metrics off.
  obs::MetricsRegistry* metrics = nullptr;
  // Per-request span tracing (obs/trace.h).
  bool tracing = true;
  // Requests slower than this are FAST_LOG(WARNING)-ed with their span
  // breakdown and retained in the slow-trace ring. 0 disables.
  double slow_request_seconds = 0.0;
  // Capacity of the recent-trace ring (the slow ring uses the same).
  std::size_t trace_ring_capacity = 256;
  // Per-tenant SLO objectives (obs/slo.h): a request is good when it
  // finishes OK within slo.latency_objective_seconds; multi-window burn
  // rates per tenant, breach/recovery counters in the registry.
  // latency_objective_seconds == 0 leaves the engine off.
  obs::SloOptions slo;
  // Flight recorder for SLO breaches (obs/slo.h): one bounded, rate-limited
  // JSON dump (registry snapshot + trace rings + account table) per breach.
  // An empty dir leaves it off.
  obs::FlightRecorderOptions flight;
};
static_assert(!std::is_aggregate_v<CommonServingOptions>,
              "CommonServingOptions must not be positionally brace-initializable");

// Per-graph compiled-plan cache budget, shared by ServiceOptions (the single
// graph) and tenant::TenantOptions (each tenant's graph).
struct PlanCacheOptions {
  PlanCacheOptions() = default;

  // Compiled-plan cache entries; 0 disables caching.
  std::size_t plan_cache_capacity = 64;

  // Byte bound on the summed partition bytes of cached plans; 0 =
  // entries-only.
  std::size_t plan_cache_byte_budget = 0;
};
static_assert(!std::is_aggregate_v<PlanCacheOptions>,
              "PlanCacheOptions must not be positionally brace-initializable");

// ---- Request delivery ledger. ----
//
// The id → in-flight bookkeeping of the router's request lifecycle: id
// allocation, the waitable map, blocking Wait with once-only semantics, and
// completion-callback delivery. Thread-safe.
class RequestLedger {
 public:
  // One request's delivery slot. The delivery mode is fixed at admission:
  // a non-null on_complete means the finishing worker invokes it (exactly
  // once) and the request is never waitable.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RequestResult result;
    std::function<void(std::uint64_t, const RequestResult&)> on_complete;
  };

  // Allocates the request id and, for callback-less slots, registers it for
  // Wait.
  std::uint64_t Add(const std::shared_ptr<Slot>& slot);

  // Withdraws an id whose admission failed after Add (e.g. queue full).
  void Forget(std::uint64_t id);

  // Blocks until the request completes and returns its result. Each id
  // resolves exactly once; unknown, already-waited, and callback-mode ids
  // are NOT_FOUND.
  StatusOr<RequestResult> Wait(std::uint64_t id);

  // Delivers the result: invokes the slot's callback on this (worker)
  // thread, or publishes it for Wait.
  static void Deliver(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                      RequestResult result);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> waitable_;
  std::uint64_t next_id_ = 1;
};

// ---- The session interface. ----
class Frontend {
 public:
  using RequestId = std::uint64_t;

  virtual ~Frontend() = default;

  // Canonicalizes q and enqueues it for the session's graph. Fails fast with
  // RESOURCE_EXHAUSTED when admission control rejects (queue full or tenant
  // quota), NOT_FOUND for an unknown session (multi-tenant backends),
  // INVALID_ARGUMENT for malformed queries, FAILED_PRECONDITION after
  // Shutdown. opts carries the per-request deadline, the streamed-embedding
  // sink, and the optional completion callback.
  virtual StatusOr<RequestId> Submit(const SessionKey& session,
                                     const QueryGraph& q,
                                     RequestOptions opts = {}) = 0;

  // Blocks until the request completes. NOT_FOUND (outer status) for
  // unknown, already-waited, or callback-mode ids; the returned
  // RequestResult's own status carries the execution outcome.
  virtual StatusOr<RequestResult> Wait(RequestId id) = 0;

  // Submit + Wait; the returned Status covers admission and execution.
  // Implemented here once — this is the collapse of the two per-backend
  // SubmitAndWait copies.
  StatusOr<RequestResult> SubmitAndWait(const SessionKey& session,
                                        const QueryGraph& q,
                                        RequestOptions opts = {});

  // Stops admission, drains queued requests, joins workers. Idempotent.
  virtual void Shutdown() = 0;

  // Requests queued but not yet dispatched (periodic-sampler probe and the
  // wire server's flow-control hint).
  virtual std::size_t queue_depth() const = 0;

  // ---- Admin-plane surfaces (src/net/admin_http.h). ----

  // The finish-side observability bundle: trace rings, per-tenant resource
  // accounts, SLO burn-rate state. The router owns one (MatchService
  // forwards to its router's); the default is for Frontend fakes in tests.
  virtual const obs::RequestObs* request_obs() const { return nullptr; }

  // Readiness for /healthz: accepting work (not shut down) and every
  // registered graph has published a snapshot (epoch > 0).
  virtual bool ready() const { return true; }

  // Recent device rounds for the /timeline/chrome synthetic device track.
  // Empty outside device mode (and for Frontend fakes).
  virtual std::vector<obs::TimelineRound> device_rounds() const { return {}; }
};

}  // namespace fast::service

#endif  // FAST_SERVICE_FRONTEND_H_
