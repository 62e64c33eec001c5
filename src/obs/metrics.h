#ifndef FAST_OBS_METRICS_H_
#define FAST_OBS_METRICS_H_

// Process-wide metrics registry: named counters, gauges, and latency
// histograms shared by every serving layer (MatchService, TenantRouter,
// PlanCache, GraphState, DeviceExecutor).
//
//   obs::MetricsRegistry registry;
//   obs::Counter* reqs = registry.GetCounter("fast_requests_total", "...");
//   reqs->Increment();                       // hot path: one relaxed add
//   obs::MetricsSnapshot snap = registry.Snapshot();   // consistent-enough
//
// Design constraints, in order:
//   1. Hot-path updates must be cheap enough to leave enabled in production
//      benches (<3% qps overhead is an acceptance gate). Counters are
//      sharded across cache lines and bumped with relaxed atomics — no
//      locks, no false sharing between worker threads. Histograms shard a
//      mutex + LatencyHistogram pair; each Record takes one uncontended
//      lock in the common case.
//   2. Metric objects are registered once by name and live as long as the
//      registry: GetCounter returns a stable raw pointer that components
//      cache at bind time and bump forever after. The registry never erases
//      entries (a std::map keeps pointers stable regardless).
//   3. Snapshot() runs concurrently with updates. Counter reads sum the
//      shards with relaxed loads: totals are monotone and each individual
//      add is atomic, which is all a scrape needs.
//
// Components keep their per-instance stats structs (tests and benches
// compare those per-phase); the registry holds the process-wide view that
// export surfaces scrape. Both are bumped in the same call. For request
// outcomes the per-instance source is the router's account table
// (obs/accounting.h), since one registry may be shared by several routers
// and services, and a component may run without one.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/latency_histogram.h"

namespace fast::obs {

// Monotone event count. Sharded so concurrent workers don't bounce one
// cache line; Value() sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(std::uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class Histogram;  // shares the per-thread shard index

  static constexpr std::size_t kNumShards = 16;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  static std::size_t ShardIndex();

  Shard shards_[kNumShards];
};

// Point-in-time value (queue depth, cache bytes, occupancy). Set() replaces,
// Add() adjusts by a signed delta — so several component instances can share
// one gauge and their contributions sum.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Latency distribution. Each Record locks one of kNumShards
// mutex+LatencyHistogram pairs (picked by the same per-thread index the
// Counter shards use, so two threads rarely contend); Snapshot() merges the
// shards into one LatencyHistogram.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double seconds);
  LatencyHistogram Snapshot() const;

 private:
  static constexpr std::size_t kNumShards = 8;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    LatencyHistogram hist;
  };

  Shard shards_[kNumShards];
};

struct CounterSample {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  LatencyHistogram hist;
};

// One consistent-enough scrape of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the metric registered under `name`, creating it on first call.
  // The pointer stays valid for the registry's lifetime. Re-registering a
  // name as a different kind is a programmer error (FAST_CHECK).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, const std::string& help = "");

  MetricsSnapshot Snapshot() const;

  // Process-wide default instance (leaked, never destroyed: metrics may be
  // bumped from detached threads during shutdown).
  static MetricsRegistry* Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetEntry(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace fast::obs

#endif  // FAST_OBS_METRICS_H_
