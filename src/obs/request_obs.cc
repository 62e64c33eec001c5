#include "obs/request_obs.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/profiler.h"
#include "util/logging.h"

namespace fast::obs {

RequestObs::RequestObs(const Options& opts)
    : opts_(opts),
      recent_(opts.trace_ring_capacity),
      slow_(opts.trace_ring_capacity),
      accounts_(opts.metrics) {
  if (opts_.slo.latency_objective_seconds > 0.0) {
    slo_ = std::make_unique<SloEngine>(opts_.slo, opts_.metrics, accounts_);
    if (!opts_.flight.dir.empty()) {
      flight_ = std::make_unique<FlightRecorder>(opts_.flight);
    }
    // The breach hook runs on the finishing worker thread, outside the
    // engine lock; everything it snapshots takes its own (independent)
    // locks. Every breach lands on the timeline event ring; the flight
    // recorder additionally dumps when configured.
    slo_->set_on_breach(
        [this](const std::string& tenant, const SloTenantState& state) {
          events_.Record(ProcessUptimeSeconds(), "slo_breach", tenant);
          if (flight_ != nullptr) {
            flight_->RecordBreach(
                tenant, state, uptime_.ElapsedSeconds(),
                opts_.metrics != nullptr ? opts_.metrics->Snapshot()
                                         : MetricsSnapshot{},
                accounts_.Snapshot(), recent_traces(), slow_traces());
          }
        });
  }
  MetricsRegistry* m = opts_.metrics;
  if (m == nullptr) return;
  submitted_ = m->GetCounter("fast_requests_total", "Requests admitted");
  completed_ =
      m->GetCounter("fast_requests_completed_total", "Requests finished OK");
  failed_ = m->GetCounter("fast_requests_failed_total",
                          "Requests failed by pipeline errors");
  rejected_queue_full_ = m->GetCounter("fast_requests_rejected_queue_full_total",
                                       "Submits rejected: queue full");
  rejected_quota_ = m->GetCounter("fast_requests_rejected_quota_total",
                                  "Submits rejected: per-tenant quota");
  rejected_deadline_ =
      m->GetCounter("fast_requests_rejected_deadline_total",
                    "Requests whose deadline passed while queued");
  cancelled_midrun_ = m->GetCounter("fast_requests_cancelled_midrun_total",
                                    "Requests cancelled mid-run by deadline");
  slow_requests_ = m->GetCounter("fast_slow_requests_total",
                                 "Requests over the slow-query threshold");
  queue_pops_blocked_ = m->GetCounter(
      "fast_queue_pops_blocked_total",
      "Queue pops that had to wait for an item (workers idle)");
  queue_pop_block_ns_ =
      m->GetCounter("fast_queue_pop_block_ns_total",
                    "Nanoseconds consumers spent blocked on an empty queue");
  queue_depth_ =
      m->GetGauge("fast_service_queue_depth", "Requests queued for a worker");
  latency_ = m->GetHistogram("fast_request_latency_seconds",
                             "Submit -> completion, successful requests");
  if (opts_.tracing) {
    for (std::size_t i = 0; i < kNumSpans; ++i) {
      const auto span = static_cast<Span>(i);
      span_hists_[i] =
          m->GetHistogram(std::string("fast_span_") + SpanName(span) + "_seconds",
                          std::string("Per-request ") + SpanName(span) +
                              " span duration");
    }
  }
}

std::shared_ptr<RequestTrace> RequestObs::StartTrace() const {
  return opts_.tracing ? std::make_shared<RequestTrace>() : nullptr;
}

void RequestObs::OnSubmitted(TenantSlot& slot) {
  accounts_.Admit(slot);
  if (submitted_ != nullptr) submitted_->Increment();
}

void RequestObs::OnRejectedQueueFull(TenantSlot& slot) {
  accounts_.Reject(slot, /*quota=*/false);
  if (rejected_queue_full_ != nullptr) rejected_queue_full_->Increment();
  events_.Record(ProcessUptimeSeconds(), "pushback", "");
}

void RequestObs::OnPopBlocked(std::uint64_t ns) {
  if (queue_pops_blocked_ != nullptr) queue_pops_blocked_->Increment();
  if (queue_pop_block_ns_ != nullptr) queue_pop_block_ns_->Increment(ns);
}

void RequestObs::OnRejectedQuota(TenantSlot& slot) {
  accounts_.Reject(slot, /*quota=*/true);
  if (rejected_quota_ != nullptr) rejected_quota_->Increment();
}

void RequestObs::SetQueueDepth(std::size_t depth) {
  if (queue_depth_ != nullptr) queue_depth_->Set(static_cast<double>(depth));
}

std::shared_ptr<const CompletedTrace> RequestObs::OnFinished(
    TenantSlot& slot, Outcome outcome, double total_seconds,
    std::shared_ptr<RequestTrace> trace, std::uint64_t request_id,
    const char* status_name, const std::string& tenant_id,
    const RequestCost& cost) {
  const bool ok = outcome == Outcome::kCompleted;
  // Attribution first: the account row and the SLO windows see every
  // finished request, whatever its outcome.
  accounts_.Charge(slot, outcome, total_seconds, cost);
  if (slo_ != nullptr) {
    slo_->Record(slot, total_seconds, ok, uptime_.ElapsedSeconds());
  }
  switch (outcome) {
    case Outcome::kCompleted:
      if (completed_ != nullptr) completed_->Increment();
      if (latency_ != nullptr) latency_->Record(total_seconds);
      break;
    case Outcome::kRejectedDeadline:
      if (rejected_deadline_ != nullptr) rejected_deadline_->Increment();
      break;
    case Outcome::kCancelledMidrun:
      if (cancelled_midrun_ != nullptr) cancelled_midrun_->Increment();
      break;
    case Outcome::kFailed:
      if (failed_ != nullptr) failed_->Increment();
      break;
  }

  if (trace == nullptr) return nullptr;

  auto done = std::make_shared<CompletedTrace>(
      trace->Finish(request_id, ok, status_name, tenant_id));
  for (const TraceSpan& s : done->spans) {
    Histogram* h = span_hists_[static_cast<std::size_t>(s.span)];
    if (h != nullptr) h->Record(s.duration_seconds);
  }
  recent_.Push(done);
  if (opts_.slow_request_seconds > 0.0 &&
      done->total_seconds >= opts_.slow_request_seconds) {
    if (slow_requests_ != nullptr) slow_requests_->Increment();
    slow_.Push(done);
    events_.Record(ProcessUptimeSeconds(), "slow_request", done->tenant_id);

    // Top wall spans by duration: the one-line triage answer to "where did
    // the time go" without pulling /traces/slow.
    std::vector<const TraceSpan*> wall;
    wall.reserve(done->spans.size());
    for (const TraceSpan& s : done->spans) {
      if (!s.simulated) wall.push_back(&s);
    }
    const std::size_t top = std::min<std::size_t>(3, wall.size());
    std::partial_sort(wall.begin(), wall.begin() + top, wall.end(),
                      [](const TraceSpan* a, const TraceSpan* b) {
                        return a->duration_seconds > b->duration_seconds;
                      });
    std::string spans;
    for (std::size_t i = 0; i < top; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s=%.3fms", i == 0 ? "" : " ",
                    SpanName(wall[i]->span),
                    wall[i]->duration_seconds * 1e3);
      spans += buf;
    }
    FAST_LOG(WARNING) << "slow request: id=" << done->request_id
                      << " tenant=" << (done->tenant_id.empty()
                                            ? "-"
                                            : done->tenant_id.c_str())
                      << " status=" << done->status << " total="
                      << static_cast<long long>(done->total_seconds * 1e6)
                      << "us coverage=" << done->Coverage()
                      << " top_spans=[" << spans << "]";
  }
  return done;
}

std::vector<std::shared_ptr<const CompletedTrace>> RequestObs::recent_traces()
    const {
  return recent_.Snapshot();
}

std::vector<std::shared_ptr<const CompletedTrace>> RequestObs::slow_traces()
    const {
  return slow_.Snapshot();
}

std::vector<InstantEvent> RequestObs::recent_events() const {
  return events_.Snapshot();
}

}  // namespace fast::obs
