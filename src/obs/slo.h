#ifndef FAST_OBS_SLO_H_
#define FAST_OBS_SLO_H_

// Per-tenant SLO tracking with multi-window burn rates and a breach flight
// recorder.
//
// The objective is a good-request fraction: a request is GOOD when it
// finished OK within `latency_objective_seconds`, BAD otherwise (errors,
// deadline rejections, and over-objective completions all burn budget). The
// error budget is 1 - target; the burn rate over a window is
//
//     burn = (bad / total in window) / (1 - target)
//
// so burn == 1 means "spending budget exactly as fast as the objective
// allows", burn == 14 means "the whole budget gone in 1/14 of the period".
// Following the standard multi-window discipline, a tenant enters breach
// only when BOTH the short window (fast signal, noisy) and the long window
// (slow signal, stable) exceed `breach_burn_rate`, and recovers when both
// drop back below — one slow request cannot flap the breach state.
//
// The engine is fed from the finish-side stream (RequestObs::OnFinished
// calls Record once per finished request) and is deterministic for tests:
// every entry point takes an explicit `now_seconds` on the engine's own
// time axis, so tests inject ticks instead of sleeping.
//
// A tenant's windows (TenantSlo) live in its slot in the account table
// (obs/accounting.h), guarded by the engine's lock; StateSnapshot walks them.
//
// On a breach transition the engine invokes an optional callback (outside
// its lock); RequestObs points that callback at a FlightRecorder, which
// writes ONE bounded JSON dump — registry snapshot, recent + slow trace
// rings, per-tenant account table — rate-limited so a flapping tenant
// cannot fill a disk.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fast::obs {

struct AccountSnapshot;
class ResourceAccounts;
struct TenantSlot;

struct SloOptions {
  SloOptions() = default;

  // Latency objective for a GOOD request; 0 disables the engine entirely.
  double latency_objective_seconds = 0.0;

  // Good-request fraction objective in (0, 1); the error budget is
  // 1 - target.
  double target = 0.999;

  // Multi-window burn-rate windows (seconds).
  double short_window_seconds = 30.0;
  double long_window_seconds = 300.0;

  // Breach when both windows' burn rates reach this.
  double breach_burn_rate = 2.0;

  // Ring granularity per window (buckets); higher = smoother expiry.
  std::size_t buckets_per_window = 30;
};

// One tenant's burn-rate state at a point in time.
struct SloTenantState {
  std::string tenant;
  double short_burn = 0.0;
  double long_burn = 0.0;
  std::uint64_t short_total = 0, short_bad = 0;
  std::uint64_t long_total = 0, long_bad = 0;
  bool breached = false;
  std::uint64_t breaches = 0;    // cumulative breach transitions
  std::uint64_t recoveries = 0;  // cumulative recovery transitions
};

// Ring of time buckets holding (total, bad) request counts; expiry is lazy —
// advancing past a bucket zeroes it.
struct BurnWindow {
  double bucket_seconds = 1.0;
  std::vector<std::uint64_t> total;
  std::vector<std::uint64_t> bad;
  std::int64_t last_bucket = -1;

  void Init(double window_seconds, std::size_t buckets);
  void Advance(double now_seconds);
  void Record(double now_seconds, bool is_bad);
  void Sums(double now_seconds, std::uint64_t* out_total,
            std::uint64_t* out_bad);
};

// One tenant's burn-rate state, held in its slot. The windows are sized on
// the tenant's first Record; before that the tenant has no SLO state.
struct TenantSlo {
  BurnWindow short_w, long_w;
  bool breached = false;
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
};

class SloEngine {
 public:
  // Invoked on a breach transition, after the engine lock is released, on
  // the finishing worker thread.
  using BreachCallback =
      std::function<void(const std::string& tenant, const SloTenantState&)>;

  // `metrics` receives fast_slo_breaches_total / fast_slo_recoveries_total
  // and the fast_slo_burn_rate_{short,long} gauges (worst tenant at the
  // last Record). Non-owning; nullptr = no registry reporting. `slots` is
  // the account table whose slots hold the windows; it must outlive the
  // engine.
  SloEngine(const SloOptions& opts, MetricsRegistry* metrics,
            ResourceAccounts& slots);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  void set_on_breach(BreachCallback cb) { on_breach_ = std::move(cb); }

  const SloOptions& options() const { return opts_; }

  // Records one finished request of the slot's tenant at `now_seconds` on
  // the engine's time axis. `slot` belongs to the engine's account table.
  // Thread-safe.
  void Record(TenantSlot& slot, double latency_seconds, bool ok,
              double now_seconds);

  // Burn-rate states as of `now_seconds` of every tenant with a recorded
  // request, sorted by tenant id.
  std::vector<SloTenantState> StateSnapshot(double now_seconds) const;

  std::uint64_t total_breaches() const;

 private:
  double BurnRate(std::uint64_t total, std::uint64_t bad) const;
  // Everything of SloTenantState but the tenant id, from `t` as of
  // `now_seconds`. Caller holds mu_.
  void Fill(TenantSlo& t, double now_seconds, SloTenantState* out) const;

  const SloOptions opts_;
  ResourceAccounts& slots_;
  Counter* breaches_counter_ = nullptr;
  Counter* recoveries_counter_ = nullptr;
  Gauge* short_burn_gauge_ = nullptr;
  Gauge* long_burn_gauge_ = nullptr;
  BreachCallback on_breach_;

  // Guards the TenantSlo of every slot.
  mutable std::mutex mu_;
};

// ---- Breach flight recorder. ----

struct FlightRecorderOptions {
  FlightRecorderOptions() = default;

  // Directory dumps are written into (created if missing); empty disables.
  std::string dir;

  // Minimum spacing between dumps; transitions inside the window are
  // counted as suppressed, not written.
  double min_interval_seconds = 60.0;

  // Lifetime cap on dumps written by this recorder.
  std::size_t max_dumps = 16;

  // Per-ring cap on traces embedded in a dump (newest kept).
  std::size_t max_traces = 64;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightRecorderOptions& opts);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return !opts_.dir.empty(); }

  // Writes flight_<tenant>_<seq>.json under dir: the breach state, the
  // registry snapshot, the account table, and the (bounded) recent + slow
  // trace rings. Returns the path, or "" when disabled, rate-limited, or
  // over the lifetime cap. Thread-safe; concurrent breaches write at most
  // one dump per rate-limit window.
  std::string RecordBreach(
      const std::string& tenant, const SloTenantState& state,
      double uptime_seconds, const MetricsSnapshot& metrics,
      const std::vector<AccountSnapshot>& accounts,
      const std::vector<std::shared_ptr<const CompletedTrace>>& recent,
      const std::vector<std::shared_ptr<const CompletedTrace>>& slow);

  std::uint64_t dumps_written() const;
  std::uint64_t dumps_suppressed() const;
  std::vector<std::string> dump_paths() const;

 private:
  const FlightRecorderOptions opts_;

  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;
  std::uint64_t suppressed_ = 0;
  bool any_written_ = false;
  double last_dump_uptime_ = 0.0;
  std::vector<std::string> paths_;
};

}  // namespace fast::obs

#endif  // FAST_OBS_SLO_H_
