#include "tenant/tenant_router.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/profiler.h"
#include "util/logging.h"
#include "util/wrr.h"

namespace fast::tenant {

struct TenantRouter::Request {
  RequestId id = 0;
  std::shared_ptr<Tenant> tenant;  // keeps a removed tenant's state alive
  service::CanonicalQuery canonical;
  RequestOptions opts;
  double deadline_seconds = 0.0;  // resolved; 0 = none
  Timer submitted;
  // Span recorder (null when tracing is off). Recorded on the client thread
  // up to the queue push under sched_mu_, then exclusively on the worker that
  // popped the request — sched_mu_ orders the two. shared_ptr because a
  // transport front end may have started it before Submit (resume_trace).
  std::shared_ptr<obs::RequestTrace> trace;
  // Delivery slot (Wait or completion callback) in the ledger.
  std::shared_ptr<service::RequestLedger::Slot> slot;
};

struct TenantRouter::Tenant {
  Tenant(std::string tenant_id, Graph graph, const TenantOptions& options,
         obs::MetricsRegistry* metrics, obs::TenantSlot& account_slot,
         std::shared_ptr<device::DeviceQueue> queue)
      : id(std::move(tenant_id)),
        opts(options),
        state(std::move(graph),
              service::GraphStateOptions{
                  .plan_cache_capacity = options.plan_cache_capacity,
                  .plan_cache_byte_budget = options.plan_cache_byte_budget,
                  .metrics = metrics}),
        slot(account_slot),
        device_queue(std::move(queue)) {
    wrr.weight = options.weight;
  }

  const std::string id;
  const TenantOptions opts;
  service::GraphState state;  // internally synchronized
  // Resolved at AddTenant: the id's account slot (outlives the tenant) and
  // its device fairness queue (device mode only; dies with the tenant).
  obs::TenantSlot& slot;
  const std::shared_ptr<device::DeviceQueue> device_queue;

  // --- Scheduler state, guarded by TenantRouter::sched_mu_. ---
  std::deque<std::shared_ptr<Request>> queue;
  WrrQueueState wrr;          // deficit-WRR state (util/wrr.h)
  std::size_t in_flight = 0;  // dispatched, not yet finished
  bool removed = false;       // deregistered; admission closed
};

namespace {

obs::RequestObs::Options ObsOptions(const RouterOptions& options) {
  obs::RequestObs::Options o;
  o.metrics = options.metrics;
  o.tracing = options.tracing;
  o.slow_request_seconds = options.slow_request_seconds;
  o.trace_ring_capacity = options.trace_ring_capacity;
  o.slo = options.slo;
  o.flight = options.flight;
  return o;
}

}  // namespace

std::string RouterStats::Summary() const {
  char buf[360];
  std::snprintf(buf, sizeof(buf),
                "tenants=%zu qps=%.1f completed=%llu failed=%llu "
                "rejected(queue=%llu quota=%llu deadline=%llu) "
                "cancelled_midrun=%llu latency[%s]",
                num_tenants, QueriesPerSecond(),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected_queue_full),
                static_cast<unsigned long long>(rejected_quota),
                static_cast<unsigned long long>(rejected_deadline),
                static_cast<unsigned long long>(cancelled_midrun),
                latency.Summary().c_str());
  return buf;
}

TenantRouter::TenantRouter(RouterOptions options)
    : options_(std::move(options)),
      obs_(ObsOptions(options_)) {
  if (options_.device_mode) {
    // One simulated card shared by every tenant, modeling the service-level
    // device under the service-level variant.
    device::DeviceOptions dopts = options_.device;
    dopts.fpga = options_.run.fpga;
    dopts.variant = options_.run.variant;
    dopts.metrics = options_.metrics;
    device_ = std::make_unique<device::DeviceExecutor>(dopts);
  }
  std::size_t n = options_.num_workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TenantRouter::~TenantRouter() { Shutdown(); }

Status TenantRouter::AddTenant(const std::string& id, Graph graph,
                               TenantOptions opts) {
  if (opts.weight == 0) opts.weight = 1;
  // Build the tenant (including the graph move) outside the scheduler lock,
  // resolving its account slot and device queue once. The WRR weight doubles
  // as the device-round weight: dispatch slots and device slots are bought
  // by the same knob.
  auto t = std::make_shared<Tenant>(
      id, std::move(graph), opts, options_.metrics, obs_.OpenTenant(id),
      device_ != nullptr ? device_->OpenQueue(opts.weight) : nullptr);
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  if (stopping_) return Status::FailedPrecondition("router is shut down");
  if (!tenants_.emplace(id, std::move(t)).second) {
    return Status::InvalidArgument("tenant id already registered: " + id);
  }
  return Status::OK();
}

Status TenantRouter::RemoveTenant(const std::string& id) {
  std::unique_lock<util::ProfiledMutex> lock(sched_mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return Status::NotFound("unknown tenant: " + id);
  std::shared_ptr<Tenant> t = it->second;
  // Close admission first (Submit re-checks `removed` under sched_mu_), then
  // wait for the backlog to drain: queued requests are still dispatched by
  // the workers and finish on the snapshots they capture — the shared_ptr
  // in each Request keeps the deregistered state alive until the last one.
  t->removed = true;
  tenants_.erase(it);
  drained_cv_.wait(lock, [&] { return t->queue.empty() && t->in_flight == 0; });
  return Status::OK();
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::FindTenant(
    const std::string& id) const {
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

StatusOr<TenantRouter::RequestId> TenantRouter::Submit(
    const service::SessionKey& tenant_id, const QueryGraph& q,
    RequestOptions opts) {
  // Tenant lookup, shutdown check and a cheap admission pre-check in one
  // sched_mu_ acquisition: a full queue rejects before paying for
  // canonicalization (the authoritative check is the enqueue below).
  std::shared_ptr<Tenant> t;
  bool queue_full = false;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    if (stopping_) return Status::FailedPrecondition("router is shut down");
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant: " + tenant_id);
    }
    t = it->second;
    queue_full = total_queued_ >= options_.queue_capacity;
  }
  if (queue_full) {
    obs_.OnRejectedQueueFull(t->slot);
    return Status::ResourceExhausted("request queue full");
  }

  auto req = std::make_shared<Request>();
  // A transport-started trace (anchored at frame receive, already carrying
  // the recv/decode spans) resumes here; otherwise tracing starts now.
  req->trace = opts.resume_trace != nullptr ? std::move(opts.resume_trace)
                                            : obs_.StartTrace();
  // No ScopedSpan: after the queue push the worker owns the trace, so nothing
  // on this thread may touch it past that point. Begin(kQueue) below closes
  // the admit span.
  if (req->trace != nullptr) req->trace->Begin(obs::Span::kAdmit);
  // Canonicalization is the expensive part of admission; it runs outside
  // every lock.
  FAST_ASSIGN_OR_RETURN(req->canonical, service::CanonicalizeQuery(q));
  req->tenant = t;
  req->opts = std::move(opts);
  req->deadline_seconds = req->opts.deadline_seconds >= 0.0
                              ? req->opts.deadline_seconds
                              : options_.default_deadline_seconds;
  req->slot = std::make_shared<service::RequestLedger::Slot>();
  req->slot->on_complete = req->opts.on_complete;
  const RequestId id = ledger_.Add(req->slot);
  req->id = id;

  Status admit = Status::OK();
  bool quota_reject = false;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    if (stopping_) {
      admit = Status::FailedPrecondition("router is shut down");
    } else if (t->removed) {
      // Lost the race with RemoveTenant between lookup and enqueue.
      admit = Status::NotFound("unknown tenant: " + tenant_id);
    } else if (total_queued_ >= options_.queue_capacity) {
      admit = Status::ResourceExhausted("request queue full");
    } else if (t->opts.max_queued > 0 && t->queue.size() >= t->opts.max_queued) {
      admit = Status::ResourceExhausted("tenant quota exceeded: " + tenant_id);
      quota_reject = true;
    } else {
      // Open the queue span BEFORE the push: once the request is queued a
      // worker may already be recording into the trace; sched_mu_ orders this
      // write against the worker's End().
      if (req->trace != nullptr) req->trace->Begin(obs::Span::kQueue);
      t->queue.push_back(req);
      ++total_queued_;
      obs_.SetQueueDepth(total_queued_);
      WrrActivate(active_, t);
    }
  }
  if (!admit.ok()) {
    ledger_.Forget(id);
    if (quota_reject) {
      obs_.OnRejectedQuota(t->slot);
    } else if (admit.code() == StatusCode::kResourceExhausted) {
      obs_.OnRejectedQueueFull(t->slot);
    }
    return admit;
  }
  obs_.OnSubmitted(t->slot);  // counts admitted requests only
  sched_cv_.notify_one();
  return id;
}

StatusOr<RequestResult> TenantRouter::Wait(RequestId id) {
  return ledger_.Wait(id);
}

StatusOr<std::uint64_t> TenantRouter::SwapGraph(const std::string& tenant_id,
                                                Graph next) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.SwapGraph(std::move(next));
}

StatusOr<std::uint64_t> TenantRouter::ApplyDelta(const std::string& tenant_id,
                                                 const GraphDelta& delta) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.ApplyDelta(delta);
}

StatusOr<GraphSnapshot> TenantRouter::snapshot(
    const std::string& tenant_id) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.snapshot();
}

void TenantRouter::Shutdown() {
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Workers drain the queued backlog, then exit; the shared device shuts
  // down only after every worker has reaped its in-flight request.
  sched_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (device_ != nullptr) device_->Shutdown();
}

std::shared_ptr<TenantRouter::Request> TenantRouter::PopNext() {
  std::unique_lock<util::ProfiledMutex> lock(sched_mu_);
  if (!stopping_ && total_queued_ == 0) {
    // An idle worker: the blocked wait is the workers-idle signal, charged
    // to the pop-blocked counters once the wait ends.
    Timer wait;
    sched_cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
    obs_.OnPopBlocked(static_cast<std::uint64_t>(wait.ElapsedNanos()));
  }
  if (total_queued_ == 0) return nullptr;  // stopping and drained
  // Deficit-style weighted round robin over the backlogged tenants — the
  // shared discipline of util/wrr.h, also used by the device executor's
  // round scheduler.
  FAST_CHECK(!active_.empty());
  std::shared_ptr<Request> req = WrrPop(
      active_,
      [](Tenant& t) {
        FAST_CHECK(!t.queue.empty());
        std::shared_ptr<Request> r = std::move(t.queue.front());
        t.queue.pop_front();
        return r;
      },
      [](const Tenant& t) { return t.queue.empty(); });
  --total_queued_;
  obs_.SetQueueDepth(total_queued_);
  ++req->tenant->in_flight;
  return req;
}

std::size_t TenantRouter::queue_depth() const {
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  return total_queued_;
}

void TenantRouter::WorkerLoop(std::size_t index) {
  obs::Profiler::RegisterCurrentThread("worker-" + std::to_string(index),
                                       obs::ThreadKind::kWorker);
  while (true) {
    std::shared_ptr<Request> req;
    {
      FAST_PROF_STAGE("queue_pop");
      req = PopNext();
    }
    if (req == nullptr) return;
    FAST_PROF_STAGE("serve");
    if (req->trace != nullptr) req->trace->End();  // closes the queue span
    RequestResult result;
    // Dispatch captures THIS tenant's snapshot inside Serve; concurrent
    // swaps on other tenants share no state with this request. The
    // thread-CPU clock around it is this tenant's host-cost charge.
    const std::uint64_t cpu_start = ThreadCpuNanos();
    req->tenant->state.Serve(req->canonical, req->opts, options_.run,
                             req->submitted.ElapsedSeconds(),
                             req->deadline_seconds, req->tenant->device_queue,
                             req->trace.get(), &result);
    Finish(std::move(req), std::move(result), ThreadCpuNanos() - cpu_start);
  }
}

void TenantRouter::Finish(std::shared_ptr<Request> req, RequestResult result,
                          std::uint64_t cpu_ns) {
  result.total_seconds = req->submitted.ElapsedSeconds();
  Tenant& t = *req->tenant;
  obs::RequestObs::Outcome outcome = obs::RequestObs::Outcome::kCompleted;
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    // graph_epoch distinguishes "expired while queued" (never dispatched)
    // from "aborted mid-run by the cancellation token".
    outcome = result.graph_epoch == 0
                  ? obs::RequestObs::Outcome::kRejectedDeadline
                  : obs::RequestObs::Outcome::kCancelledMidrun;
  } else if (!result.status.ok()) {
    outcome = obs::RequestObs::Outcome::kFailed;
  }
  obs::RequestCost cost;
  cost.cpu_ns = cpu_ns;
  cost.device_kernel_ns =
      static_cast<std::uint64_t>(result.run.kernel_seconds * 1e9);
  cost.dma_bytes = result.run.dma_bytes;
  cost.queue_wait_ns = static_cast<std::uint64_t>(result.queue_seconds * 1e9);
  cost.plan_cache_bytes = result.plan_bytes_charged;
  result.trace = obs_.OnFinished(t.slot, outcome, result.total_seconds,
                                 std::move(req->trace), req->id,
                                 StatusCodeToString(result.status.code()), t.id,
                                 cost);
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    --t.in_flight;
    if (t.removed && t.in_flight == 0 && t.queue.empty()) {
      drained_cv_.notify_all();
    }
  }
  service::RequestLedger::Deliver(req->id, req->slot, std::move(result));
}

// The tenant's stats from a sorted account snapshot (outcome counters) and
// its GraphState (publication and cache stats).
TenantStats TenantRouter::MakeTenantStats(
    const Tenant& t, const std::vector<obs::AccountSnapshot>& accounts) {
  TenantStats out;
  out.id = t.id;
  out.weight = t.opts.weight;
  const obs::AccountSnapshot* row = obs::FindAccount(accounts, t.slot.id());
  if (row != nullptr) out.Add(*row);
  t.state.publication_stats(&out.epoch, &out.graph_swaps);
  out.cache = t.state.cache_stats();
  return out;
}

RouterStats TenantRouter::stats() const {
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) tenants.push_back(t);
  }
  std::sort(tenants.begin(), tenants.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });

  // One account snapshot feeds both the totals and the tenant rows, so the
  // rows of a fixed tenant set sum to the totals exactly. The totals also
  // cover removed tenants, whose rows outlive them.
  const std::vector<obs::AccountSnapshot> accounts = obs_.accounts().Snapshot();
  RouterStats s;
  for (const obs::AccountSnapshot& row : accounts) s.Add(row);
  s.num_tenants = tenants.size();
  s.tenants.reserve(tenants.size());
  for (const auto& t : tenants) s.tenants.push_back(MakeTenantStats(*t, accounts));
  if (device_ != nullptr) {
    s.device_mode = true;
    s.device = device_->stats();
  }
  s.uptime_seconds = uptime_.ElapsedSeconds();
  return s;
}

StatusOr<TenantStats> TenantRouter::tenant_stats(
    const std::string& tenant_id) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return MakeTenantStats(*t, obs_.accounts().Snapshot());
}

std::vector<std::string> TenantRouter::tenant_ids() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    ids.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace fast::tenant
