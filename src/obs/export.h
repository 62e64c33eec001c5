#ifndef FAST_OBS_EXPORT_H_
#define FAST_OBS_EXPORT_H_

// Export surfaces for the metrics registry and request traces:
//   - WriteSnapshotJson / SnapshotToJson: registry snapshot as JSON (either
//     embedded into an open JsonWriter — how the benches attach a "metrics"
//     object to BENCH_*.json — or as a standalone document for
//     `fast_serve --metrics-json`).
//   - ToPrometheusText: the same snapshot in Prometheus exposition format
//     (counters/gauges verbatim, histograms as summary-style quantiles).
//   - TraceToJson: one CompletedTrace as a single-line JSON object, for
//     append-per-request JSONL trace logs.
//   - PeriodicSampler: a background thread that polls caller-supplied
//     gauges (queue depth, device occupancy, cache bytes) on an interval,
//     mirrors the latest value into registry gauges, and retains a bounded
//     time-series per name for export.
//   - LocksToPrometheusText / LocksToJson: the ProfiledMutex contention
//     registry as fast_lock_* label families / as the /locks document.
//   - ProfileToJson: a profiler snapshot as the /profile document.
//   - ChromeTraceJson: request spans, device rounds, sampled stage
//     transitions, and instant events merged onto one Chrome trace-event
//     timeline (load in Perfetto or chrome://tracing).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/json_writer.h"
#include "util/profiled_mutex.h"
#include "util/timer.h"

namespace fast::obs {

// Emits `snap` as an object field named `key` of the writer's current scope
// ("counters"/"gauges" maps plus a "histograms" object of per-metric
// count/mean/p50/p90/p99/max).
void WriteSnapshotJson(JsonWriter& w, const MetricsSnapshot& snap,
                       const char* key = "metrics");

// Standalone JSON document of one snapshot.
std::string SnapshotToJson(const MetricsSnapshot& snap);

// Prometheus text exposition format. Histograms are exported as native
// cumulative histograms — only occupied buckets emit a series, closed by the
// mandatory +Inf bucket — so a real Prometheus/Grafana can histogram_quantile
// across scrapes and restarts (the JSON export keeps the quantile form):
//   fast_request_latency_seconds_bucket{le="0.001"} 5
//   fast_request_latency_seconds_bucket{le="+Inf"} 420
//   fast_request_latency_seconds_sum 1.5
//   fast_request_latency_seconds_count 420
std::string ToPrometheusText(const MetricsSnapshot& snap);

// One trace as a single-line JSON object (no trailing newline): request id,
// tenant, status, total, coverage, and a span array.
std::string TraceToJson(const CompletedTrace& trace);

// The same trace emitted through an open JsonWriter as one object element of
// the current (array) scope — how the flight recorder embeds trace rings in
// a breach dump.
void WriteTraceJson(JsonWriter& w, const CompletedTrace& trace);

// Build/version stamp (util/build_info.h) as an object field named `key`.
void WriteBuildInfoJson(JsonWriter& w, const char* key = "build");

// ---- Contention accounting (util/profiled_mutex.h). ----

// The aggregated lock stats as Prometheus label families, appended to the
// /metrics exposition after the registry text:
//   fast_lock_acquisitions_total{lock="plan_cache"} 1234
//   fast_lock_contended_total{lock="plan_cache"} 56
//   fast_lock_wait_seconds_total{lock="plan_cache"} 0.004
//   fast_lock_hold_seconds_max{lock="plan_cache"} 0.0001
std::string LocksToPrometheusText(const std::vector<util::LockStats>& locks);

// The same rows as the standalone /locks JSON document.
std::string LocksToJson(const std::vector<util::LockStats>& locks);

// ---- Profiler exports (obs/profiler.h). ----

// A profile snapshot (cumulative or a /profile?seconds=N window delta) as a
// JSON document: sampler state, per-(kind, stage-path) buckets with wall
// sample counts and thread-CPU nanoseconds, and the thread table.
std::string ProfileToJson(const ProfileSnapshot& snap);

// ---- Chrome trace-event timeline. ----

// A device round on the timeline's synthetic "device" track (the executor
// retains a bounded ring of these; see DeviceExecutor::recent_rounds).
struct TimelineRound {
  std::uint64_t round = 0;          // 1-based round sequence number
  // The round's span on the ProcessUptimeSeconds axis. The device may have
  // two rounds open at once, but spans never overlap: a span starts at the
  // later of its round's opening and the previous round's retirement, and
  // ends at its own retirement.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  double pcie_sim_seconds = 0.0;    // simulated transfer time
  double kernel_sim_seconds = 0.0;  // simulated kernel time, summed over items
  std::uint64_t items = 0;
  std::uint64_t queries = 0;
  std::uint64_t wire_bytes = 0;
};

// Everything the timeline interleaves. All members are optional; an empty
// input still produces a valid (metadata-only) document.
struct ChromeTraceInputs {
  ChromeTraceInputs() = default;

  std::string process_name = "fast";
  // Request traces: every non-simulated span becomes a complete ("X") event
  // on the tid track that recorded it.
  std::vector<std::shared_ptr<const CompletedTrace>> traces;
  // Thread table for thread_name/thread_sort metadata (Snapshot().threads).
  std::vector<ProfThreadInfo> threads;
  // Sampled stage timeline; consecutive same-stage samples per thread merge
  // into one X event on a parallel "<thread> stages" track.
  std::vector<StageSample> stage_samples;
  double sample_period_seconds = 0.0;  // closes each thread's final stage run
  // Device rounds on the synthetic device track.
  std::vector<TimelineRound> rounds;
  // SLO breaches, pushbacks, slow-request flags as instant ("i") events.
  std::vector<InstantEvent> instants;
};
static_assert(!std::is_aggregate_v<ChromeTraceInputs>,
              "ChromeTraceInputs must not be positionally brace-initializable");

// The trace-event JSON document ({"traceEvents": [...]}, ts/dur in
// microseconds on the ProcessUptimeSeconds axis). Only "X", "i", and "M"
// phase events are emitted, so ts/dur are non-negative and no B/E balancing
// is required of consumers.
std::string ChromeTraceJson(const ChromeTraceInputs& inputs);

// Polls `sample` every `interval_seconds` on a background thread. Each
// returned (name, value) pair is mirrored into `registry`'s gauge of that
// name and appended to a retained time-series (bounded at
// `max_points_per_series`, oldest dropped). Sampling begins on Start() and
// one final sample is taken on Stop() so short runs still export a series.
class PeriodicSampler {
 public:
  using SampleFn = std::function<std::vector<std::pair<std::string, double>>()>;

  PeriodicSampler(MetricsRegistry* registry, double interval_seconds,
                  SampleFn sample, std::size_t max_points_per_series = 4096);
  ~PeriodicSampler();

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  void Start();
  void Stop();  // idempotent; joins the thread

  // Takes one sample immediately, attributed to `at_seconds` on the series
  // time axis. This is the deterministic entry point tests drive instead of
  // Start(): inject ticks at chosen instants, no background thread, no
  // sleeps. Safe to combine with Start() (the mirror + append is locked).
  void SampleNow(double at_seconds) { TakeSample(at_seconds); }

  struct Series {
    std::string name;
    std::vector<std::pair<double, double>> points;  // (seconds-since-start, value)
  };
  std::vector<Series> SeriesSnapshot() const;

  // Emits the retained series as an array field named `key`.
  void WriteSeriesJson(JsonWriter& w, const char* key = "samples") const;

 private:
  void Loop();
  void TakeSample(double at_seconds);

  MetricsRegistry* const registry_;
  const double interval_seconds_;
  const SampleFn sample_;
  const std::size_t max_points_;

  Timer clock_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<Series> series_;  // insertion-ordered
};

}  // namespace fast::obs

#endif  // FAST_OBS_EXPORT_H_
