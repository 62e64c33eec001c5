#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "obs/accounting.h"
#include "obs/export.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace fast::obs {

// ---- BurnWindow ----

void BurnWindow::Init(double window_seconds, std::size_t buckets) {
  buckets = std::max<std::size_t>(1, buckets);
  bucket_seconds = std::max(window_seconds, 1e-9) / static_cast<double>(buckets);
  total.assign(buckets, 0);
  bad.assign(buckets, 0);
  last_bucket = -1;
}

void BurnWindow::Advance(double now_seconds) {
  const auto b = static_cast<std::int64_t>(
      std::floor(std::max(now_seconds, 0.0) / bucket_seconds));
  const auto n = static_cast<std::int64_t>(total.size());
  if (last_bucket < 0) {
    last_bucket = b;
    return;
  }
  if (b <= last_bucket) return;  // same bucket, or a laggard thread — keep
  // Zero every bucket the clock skipped over (lazy expiry).
  const std::int64_t from = std::max(last_bucket + 1, b - n + 1);
  for (std::int64_t i = from; i <= b; ++i) {
    total[static_cast<std::size_t>(i % n)] = 0;
    bad[static_cast<std::size_t>(i % n)] = 0;
  }
  last_bucket = b;
}

void BurnWindow::Record(double now_seconds, bool is_bad) {
  Advance(now_seconds);
  const auto slot =
      static_cast<std::size_t>(last_bucket % static_cast<std::int64_t>(total.size()));
  ++total[slot];
  if (is_bad) ++bad[slot];
}

void BurnWindow::Sums(double now_seconds, std::uint64_t* out_total,
                             std::uint64_t* out_bad) {
  Advance(now_seconds);
  std::uint64_t t = 0, b = 0;
  for (std::size_t i = 0; i < total.size(); ++i) {
    t += total[i];
    b += bad[i];
  }
  *out_total = t;
  *out_bad = b;
}

// ---- SloEngine ----

SloEngine::SloEngine(const SloOptions& opts, MetricsRegistry* metrics,
                     ResourceAccounts& slots)
    : opts_(opts), slots_(slots) {
  if (metrics == nullptr) return;
  breaches_counter_ = metrics->GetCounter(
      "fast_slo_breaches_total", "Tenant SLO breach transitions");
  recoveries_counter_ = metrics->GetCounter(
      "fast_slo_recoveries_total", "Tenant SLO recovery transitions");
  short_burn_gauge_ = metrics->GetGauge(
      "fast_slo_burn_rate_short",
      "Short-window burn rate of the last-finishing tenant");
  long_burn_gauge_ = metrics->GetGauge(
      "fast_slo_burn_rate_long",
      "Long-window burn rate of the last-finishing tenant");
}

double SloEngine::BurnRate(std::uint64_t total, std::uint64_t bad) const {
  if (total == 0) return 0.0;
  const double budget = std::clamp(1.0 - opts_.target, 1e-9, 1.0);
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void SloEngine::Fill(TenantSlo& t, double now_seconds,
                     SloTenantState* out) const {
  t.short_w.Sums(now_seconds, &out->short_total, &out->short_bad);
  t.long_w.Sums(now_seconds, &out->long_total, &out->long_bad);
  out->short_burn = BurnRate(out->short_total, out->short_bad);
  out->long_burn = BurnRate(out->long_total, out->long_bad);
  out->breached = t.breached;
  out->breaches = t.breaches;
  out->recoveries = t.recoveries;
}

void SloEngine::Record(TenantSlot& slot, double latency_seconds, bool ok,
                       double now_seconds) {
  const bool bad = !ok || latency_seconds > opts_.latency_objective_seconds;
  const double limit = opts_.breach_burn_rate;
  bool breach_fired = false;
  bool recovery_fired = false;
  SloTenantState state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantSlo& t = slot.slo;
    if (t.short_w.total.empty()) {
      t.short_w.Init(opts_.short_window_seconds, opts_.buckets_per_window);
      t.long_w.Init(opts_.long_window_seconds, opts_.buckets_per_window);
    }
    t.short_w.Record(now_seconds, bad);
    t.long_w.Record(now_seconds, bad);
    Fill(t, now_seconds, &state);
    if (!t.breached && state.short_burn >= limit && state.long_burn >= limit) {
      t.breached = true;
      ++t.breaches;
      breach_fired = true;
    } else if (t.breached && state.short_burn < limit &&
               state.long_burn < limit) {
      t.breached = false;
      ++t.recoveries;
      recovery_fired = true;
    }
    state.breached = t.breached;
    state.breaches = t.breaches;
    state.recoveries = t.recoveries;
  }
  // Registry mirrors and the breach hook run outside the engine lock: the
  // flight recorder snapshots rings and the registry, which take their own
  // locks on this (worker) thread.
  if (short_burn_gauge_ != nullptr) short_burn_gauge_->Set(state.short_burn);
  if (long_burn_gauge_ != nullptr) long_burn_gauge_->Set(state.long_burn);
  if (breach_fired) {
    state.tenant = slot.id();
    if (breaches_counter_ != nullptr) breaches_counter_->Increment();
    FAST_LOG(WARNING) << "SLO breach: tenant=" << state.tenant
                      << " short_burn=" << state.short_burn
                      << " long_burn=" << state.long_burn;
    if (on_breach_) on_breach_(state.tenant, state);
  }
  if (recovery_fired && recoveries_counter_ != nullptr) {
    recoveries_counter_->Increment();
  }
}

std::vector<SloTenantState> SloEngine::StateSnapshot(double now_seconds) const {
  const std::vector<TenantSlot*> slots = slots_.Slots();
  std::vector<SloTenantState> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (TenantSlot* slot : slots) {
    if (slot->slo.short_w.total.empty()) continue;  // nothing recorded yet
    SloTenantState& s = out.emplace_back();
    s.tenant = slot->id();
    Fill(slot->slo, now_seconds, &s);
  }
  return out;
}

std::uint64_t SloEngine::total_breaches() const {
  const std::vector<TenantSlot*> slots = slots_.Slots();
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const TenantSlot* slot : slots) n += slot->slo.breaches;
  return n;
}

// ---- FlightRecorder ----

namespace {

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("tenant") : out;
}

void WriteSloStateJson(JsonWriter& w, const SloTenantState& s) {
  w.Field("tenant", s.tenant);
  w.Field("short_burn", s.short_burn);
  w.Field("long_burn", s.long_burn);
  w.Field("short_total", s.short_total);
  w.Field("short_bad", s.short_bad);
  w.Field("long_total", s.long_total);
  w.Field("long_bad", s.long_bad);
  w.Field("breached", s.breached);
  w.Field("breaches", s.breaches);
  w.Field("recoveries", s.recoveries);
}

}  // namespace

FlightRecorder::FlightRecorder(const FlightRecorderOptions& opts)
    : opts_(opts) {}

std::string FlightRecorder::RecordBreach(
    const std::string& tenant, const SloTenantState& state,
    double uptime_seconds, const MetricsSnapshot& metrics,
    const std::vector<AccountSnapshot>& accounts,
    const std::vector<std::shared_ptr<const CompletedTrace>>& recent,
    const std::vector<std::shared_ptr<const CompletedTrace>>& slow) {
  if (!enabled()) return "";
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool rate_limited =
        any_written_ &&
        uptime_seconds - last_dump_uptime_ < opts_.min_interval_seconds;
    if (rate_limited || seq_ >= opts_.max_dumps) {
      ++suppressed_;
      return "";
    }
    any_written_ = true;
    last_dump_uptime_ = uptime_seconds;
    seq = ++seq_;
  }

  JsonWriter w;
  w.Field("reason", "slo_breach");
  w.Field("uptime_seconds", uptime_seconds);
  WriteBuildInfoJson(w);
  w.BeginObject("breach");
  WriteSloStateJson(w, state);
  w.EndObject();
  WriteSnapshotJson(w, metrics);
  WriteAccountsJson(w, accounts);
  // Newest `max_traces` of each ring (rings are newest-last).
  const auto bounded = [&](const auto& ring) {
    const std::size_t skip =
        ring.size() > opts_.max_traces ? ring.size() - opts_.max_traces : 0;
    return std::make_pair(ring.begin() + static_cast<std::ptrdiff_t>(skip),
                          ring.end());
  };
  w.BeginArray("traces_recent");
  for (auto [it, end] = bounded(recent); it != end; ++it) WriteTraceJson(w, **it);
  w.EndArray();
  w.BeginArray("traces_slow");
  for (auto [it, end] = bounded(slow); it != end; ++it) WriteTraceJson(w, **it);
  w.EndArray();

  std::error_code ec;
  std::filesystem::create_directories(opts_.dir, ec);
  const std::string path = opts_.dir + "/flight_" + SanitizeForFilename(tenant) +
                           "_" + std::to_string(seq) + ".json";
  if (!WriteJsonFile(path, w.Finish())) return "";
  FAST_LOG(WARNING) << "flight recorder: wrote " << path;
  std::lock_guard<std::mutex> lock(mu_);
  paths_.push_back(path);
  return path;
}

std::uint64_t FlightRecorder::dumps_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::uint64_t FlightRecorder::dumps_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

std::vector<std::string> FlightRecorder::dump_paths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_;
}

}  // namespace fast::obs
