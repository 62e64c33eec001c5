#ifndef FAST_OBS_REQUEST_OBS_H_
#define FAST_OBS_REQUEST_OBS_H_

// The observability bundle of the serving pool (tenant::TenantRouter, which
// MatchService wraps as its one-tenant configuration): the request-level
// registry metrics (outcome counters, latency and per-span histograms,
// queue-depth gauge, worker pop-wait counters), the recent-trace ring, the
// slow-query retention ring, and the slow-query WARNING log.
//
// It is also the admin plane's attribution point and the instance's one
// outcome counter. The owner opens a tenant's slot once (OpenTenant, at
// tenant registration); OnSubmitted / OnRejected* / OnFinished then charge
// the account row in that slot (obs/accounting.h), which the router's
// stats() and /tenants read, with no tenant-id lookup. OnFinished also feeds
// the slot's SLO windows (obs/slo.h), whose breach transitions trigger the
// flight recorder. The registry counters bumped in the same calls are the
// process-wide view; the registry is optional and may be shared by several
// routers, so it cannot be the per-instance source.

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace fast::obs {

class RequestObs {
 public:
  // Non-aggregate on purpose — set fields by name.
  struct Options {
    Options() = default;

    // Registry to report into; nullptr disables all registry metrics (trace
    // rings and the slow log still work when tracing is on).
    MetricsRegistry* metrics = nullptr;
    // Record per-request span traces. Off, StartTrace returns nullptr and
    // every downstream span record is a skipped branch.
    bool tracing = true;
    // Requests slower than this get a FAST_LOG(WARNING) with their span
    // breakdown and are retained in the slow ring. 0 disables.
    double slow_request_seconds = 0.0;
    // Capacity of the recent-trace ring (the slow ring uses the same).
    std::size_t trace_ring_capacity = 256;
    // Per-tenant SLO objectives (obs/slo.h); latency_objective_seconds == 0
    // leaves the engine off.
    SloOptions slo;
    // Breach flight recorder (obs/slo.h); an empty dir leaves it off.
    FlightRecorderOptions flight;
  };

  using Outcome = RequestOutcome;

  explicit RequestObs(const Options& opts);

  bool tracing() const { return opts_.tracing; }

  // New per-request recorder; nullptr when tracing is disabled. shared_ptr
  // because a transport front end may start the trace before Submit (anchored
  // at frame receive) and hand it to the service via
  // RequestOptions::resume_trace.
  std::shared_ptr<RequestTrace> StartTrace() const;

  // The slot `tenant_id` is charged to: ResourceAccounts::Open.
  TenantSlot& OpenTenant(const std::string& tenant_id) {
    return accounts_.Open(tenant_id);
  }

  // Admission-side counters, charged to the slot's account row.
  void OnSubmitted(TenantSlot& slot);
  void OnRejectedQueueFull(TenantSlot& slot);
  void OnRejectedQuota(TenantSlot& slot);

  // Queue-depth gauge (sampled value, set by the owning service).
  void SetQueueDepth(std::size_t depth);

  // A worker found the request queue empty and blocked for `ns` before work
  // (or shutdown) arrived: the workers-idle signal, mirrored into the
  // fast_queue_pops_blocked_total / fast_queue_pop_block_ns_total counters.
  void OnPopBlocked(std::uint64_t ns);

  // Finish-side pipeline: charges the outcome, latency and `cost` to the
  // slot's account row, bumps the registry outcome counter, records the
  // latency and per-span histograms, feeds the slot's SLO windows, and
  // retains the trace (tagged with `tenant_id`) in the recent ring (and the
  // slow ring + WARNING log past the threshold). Returns the frozen trace
  // for the RequestResult, or nullptr when `trace` was null.
  std::shared_ptr<const CompletedTrace> OnFinished(
      TenantSlot& slot, Outcome outcome, double total_seconds,
      std::shared_ptr<RequestTrace> trace, std::uint64_t request_id,
      const char* status_name, const std::string& tenant_id = "",
      const RequestCost& cost = {});

  // Newest-last snapshots of the retained traces.
  std::vector<std::shared_ptr<const CompletedTrace>> recent_traces() const;
  std::vector<std::shared_ptr<const CompletedTrace>> slow_traces() const;

  // Newest-last ring of instant events (SLO breaches, queue-full pushbacks,
  // slow-request flags) on the ProcessUptimeSeconds axis, for the timeline
  // exporter.
  std::vector<InstantEvent> recent_events() const;

  // ---- Admin-plane surfaces. ----
  const ResourceAccounts& accounts() const { return accounts_; }
  // Null when the engine / recorder is disabled.
  const SloEngine* slo() const { return slo_.get(); }
  const FlightRecorder* flight_recorder() const { return flight_.get(); }
  // The time axis SLO records and flight-recorder rate limits run on.
  double uptime_seconds() const { return uptime_.ElapsedSeconds(); }

 private:
  const Options opts_;

  // Null when no registry was supplied.
  Counter* submitted_ = nullptr;
  Counter* completed_ = nullptr;
  Counter* failed_ = nullptr;
  Counter* rejected_queue_full_ = nullptr;
  Counter* rejected_quota_ = nullptr;
  Counter* rejected_deadline_ = nullptr;
  Counter* cancelled_midrun_ = nullptr;
  Counter* slow_requests_ = nullptr;
  Counter* queue_pops_blocked_ = nullptr;
  Counter* queue_pop_block_ns_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Histogram* latency_ = nullptr;
  Histogram* span_hists_[kNumSpans] = {};

  TraceRing recent_;
  TraceRing slow_;
  EventRing events_{256};

  Timer uptime_;
  ResourceAccounts accounts_;
  std::unique_ptr<SloEngine> slo_;       // null when objectives are unset
  std::unique_ptr<FlightRecorder> flight_;  // null when no dump dir
};
static_assert(!std::is_aggregate_v<RequestObs::Options>,
              "RequestObs::Options must not be positionally brace-initializable");

}  // namespace fast::obs

#endif  // FAST_OBS_REQUEST_OBS_H_
