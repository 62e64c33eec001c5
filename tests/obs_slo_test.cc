// Tests for the SLO burn-rate engine and the breach flight recorder
// (src/obs/slo.h). The engine takes explicit now_seconds everywhere, so
// every scenario here injects ticks — no sleeps, fully deterministic.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "obs/slo.h"

namespace fast {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::MetricsRegistry;
using obs::RequestCost;
using obs::RequestObs;
using obs::ResourceAccounts;
using obs::SloEngine;
using obs::SloOptions;
using obs::SloTenantState;

SloOptions TightOptions() {
  SloOptions o;
  o.latency_objective_seconds = 0.010;  // 10ms
  o.target = 0.9;                       // 10% error budget
  o.short_window_seconds = 10.0;
  o.long_window_seconds = 100.0;
  o.breach_burn_rate = 2.0;
  o.buckets_per_window = 10;
  return o;
}

SloTenantState StateFor(const SloEngine& eng, const std::string& tenant,
                        double now) {
  for (const auto& s : eng.StateSnapshot(now)) {
    if (s.tenant == tenant) return s;
  }
  return {};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string MakeTempDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "fast_slo_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SloEngineTest, BurnRateMathIsExact) {
  MetricsRegistry reg;
  ResourceAccounts slots;
  SloEngine eng(TightOptions(), &reg, slots);
  // 10 requests at t=1, 2 of them bad (slow). bad/total = 0.2, budget = 0.1,
  // burn = 2.0 in both windows.
  for (int i = 0; i < 8; ++i) eng.Record(slots.Open("t"), 0.001, true, 1.0);
  eng.Record(slots.Open("t"), 0.5, true, 1.0);   // over objective -> bad
  eng.Record(slots.Open("t"), 0.001, false, 1.0);  // error -> bad
  slots.Open("idle");  // opened, never recorded: no SLO state
  ASSERT_EQ(eng.StateSnapshot(1.0).size(), 1u);
  const SloTenantState s = StateFor(eng, "t", 1.0);
  EXPECT_EQ(s.short_total, 10u);
  EXPECT_EQ(s.short_bad, 2u);
  EXPECT_DOUBLE_EQ(s.short_burn, 2.0);
  EXPECT_DOUBLE_EQ(s.long_burn, 2.0);
}

TEST(SloEngineTest, BreachNeedsBothWindows) {
  MetricsRegistry reg;
  const SloOptions opts = TightOptions();
  ResourceAccounts slots;
  SloEngine eng(opts, &reg, slots);
  // Seed the long window with lots of good traffic spread over its span so
  // the long burn stays low when the short window goes bad.
  for (int t = 0; t < 90; ++t) {
    for (int i = 0; i < 10; ++i) {
      eng.Record(slots.Open("t"), 0.001, true, static_cast<double>(t));
    }
  }
  // Now an all-bad burst at t=95: short window sees only bad, long window
  // is diluted by the 900 good requests.
  for (int i = 0; i < 10; ++i) eng.Record(slots.Open("t"), 0.5, true, 95.0);
  SloTenantState s = StateFor(eng, "t", 95.0);
  EXPECT_GE(s.short_burn, opts.breach_burn_rate);
  EXPECT_LT(s.long_burn, opts.breach_burn_rate);
  EXPECT_FALSE(s.breached);
  EXPECT_EQ(eng.total_breaches(), 0u);
  // Keep the burst going until the long window is saturated too.
  for (int t = 96; t < 300; ++t) {
    for (int i = 0; i < 10; ++i) {
      eng.Record(slots.Open("t"), 0.5, true, static_cast<double>(t));
    }
  }
  s = StateFor(eng, "t", 299.0);
  EXPECT_TRUE(s.breached);
  EXPECT_EQ(s.breaches, 1u);
  EXPECT_EQ(eng.total_breaches(), 1u);
}

TEST(SloEngineTest, BreachCallbackFiresOncePerTransitionAndRecovers) {
  MetricsRegistry reg;
  ResourceAccounts slots;
  SloEngine eng(TightOptions(), &reg, slots);
  int callbacks = 0;
  std::string breached_tenant;
  eng.set_on_breach([&](const std::string& tenant, const SloTenantState& s) {
    ++callbacks;
    breached_tenant = tenant;
    EXPECT_TRUE(s.breached);
  });
  // All-bad traffic breaches both windows immediately (every bucket bad).
  for (int t = 0; t < 5; ++t) {
    for (int i = 0; i < 10; ++i) {
      eng.Record(slots.Open("a"), 0.5, true, static_cast<double>(t));
    }
  }
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(breached_tenant, "a");
  // More bad traffic while breached: no re-fire.
  for (int i = 0; i < 10; ++i) eng.Record(slots.Open("a"), 0.5, true, 5.0);
  EXPECT_EQ(callbacks, 1);
  // Long quiet gap, then good traffic: both windows expire the bad buckets
  // and the tenant recovers.
  for (int i = 0; i < 10; ++i) eng.Record(slots.Open("a"), 0.001, true, 1000.0);
  const SloTenantState s = StateFor(eng, "a", 1000.0);
  EXPECT_FALSE(s.breached);
  EXPECT_EQ(s.recoveries, 1u);
  // Breach again -> callback fires a second time.
  for (int t = 1001; t < 1006; ++t) {
    for (int i = 0; i < 10; ++i) {
      eng.Record(slots.Open("a"), 0.5, true, static_cast<double>(t));
    }
  }
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(eng.total_breaches(), 2u);
}

TEST(SloEngineTest, RegistryCountersAndGaugesTrackTransitions) {
  MetricsRegistry reg;
  ResourceAccounts slots;
  SloEngine eng(TightOptions(), &reg, slots);
  for (int t = 0; t < 5; ++t) {
    for (int i = 0; i < 10; ++i) {
      eng.Record(slots.Open("a"), 0.5, true, static_cast<double>(t));
    }
  }
  std::uint64_t breaches = 0;
  double short_burn = -1.0;
  for (const auto& c : reg.Snapshot().counters) {
    if (c.name == "fast_slo_breaches_total") breaches = c.value;
  }
  for (const auto& g : reg.Snapshot().gauges) {
    if (g.name == "fast_slo_burn_rate_short") short_burn = g.value;
  }
  EXPECT_EQ(breaches, 1u);
  EXPECT_GE(short_burn, 2.0);
}

TEST(FlightRecorderTest, WritesOneDumpThenRateLimits) {
  const std::string dir = MakeTempDir("rate");
  FlightRecorderOptions opts;
  opts.dir = dir;
  opts.min_interval_seconds = 60.0;
  FlightRecorder rec(opts);
  ASSERT_TRUE(rec.enabled());

  MetricsRegistry reg;
  reg.GetCounter("fast_demo_total", "demo")->Increment();
  SloTenantState state;
  state.tenant = "t0";
  state.breached = true;
  state.short_burn = 14.0;

  const std::string path =
      rec.RecordBreach("t0", state, /*uptime_seconds=*/1.0, reg.Snapshot(),
                       {}, {}, {});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(rec.dumps_written(), 1u);
  EXPECT_EQ(rec.dumps_suppressed(), 0u);

  const std::string doc = ReadFile(path);
  EXPECT_NE(doc.find("\"tenant\": \"t0\""), std::string::npos);
  EXPECT_NE(doc.find("\"short_burn\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(doc.find("fast_demo_total"), std::string::npos);
  EXPECT_NE(doc.find("\"accounts\""), std::string::npos);

  // Second breach 10s later: inside min_interval -> suppressed.
  const std::string second =
      rec.RecordBreach("t0", state, /*uptime_seconds=*/11.0, reg.Snapshot(),
                       {}, {}, {});
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(rec.dumps_written(), 1u);
  EXPECT_EQ(rec.dumps_suppressed(), 1u);

  // Past the interval: written again.
  const std::string third =
      rec.RecordBreach("t1", state, /*uptime_seconds=*/120.0, reg.Snapshot(),
                       {}, {}, {});
  EXPECT_FALSE(third.empty());
  EXPECT_EQ(rec.dumps_written(), 2u);
  ASSERT_EQ(rec.dump_paths().size(), 2u);
  EXPECT_EQ(rec.dump_paths()[0], path);

  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, LifetimeCapStopsDumps) {
  const std::string dir = MakeTempDir("cap");
  FlightRecorderOptions opts;
  opts.dir = dir;
  opts.min_interval_seconds = 0.0;
  opts.max_dumps = 2;
  FlightRecorder rec(opts);
  MetricsRegistry reg;
  SloTenantState state;
  state.tenant = "t";
  EXPECT_FALSE(
      rec.RecordBreach("t", state, 1.0, reg.Snapshot(), {}, {}, {}).empty());
  EXPECT_FALSE(
      rec.RecordBreach("t", state, 2.0, reg.Snapshot(), {}, {}, {}).empty());
  EXPECT_TRUE(
      rec.RecordBreach("t", state, 3.0, reg.Snapshot(), {}, {}, {}).empty());
  EXPECT_EQ(rec.dumps_written(), 2u);
  EXPECT_EQ(rec.dumps_suppressed(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, DisabledWithoutDir) {
  FlightRecorder rec(FlightRecorderOptions{});
  EXPECT_FALSE(rec.enabled());
  MetricsRegistry reg;
  SloTenantState state;
  EXPECT_TRUE(
      rec.RecordBreach("t", state, 1.0, reg.Snapshot(), {}, {}, {}).empty());
  EXPECT_EQ(rec.dumps_written(), 0u);
}

// End-to-end through RequestObs: OnFinished feeds the SLO engine, whose
// breach transition triggers exactly one flight-recorder dump.
TEST(RequestObsSloTest, BreachThroughOnFinishedWritesOneDump) {
  const std::string dir = MakeTempDir("obs");
  MetricsRegistry reg;
  RequestObs::Options opts;
  opts.metrics = &reg;
  opts.tracing = false;
  opts.slo = TightOptions();
  opts.flight.dir = dir;
  opts.flight.min_interval_seconds = 3600.0;
  RequestObs obs(opts);
  ASSERT_NE(obs.slo(), nullptr);
  ASSERT_NE(obs.flight_recorder(), nullptr);

  RequestCost cost;
  cost.cpu_ns = 1000;
  // Every request finishes far over the 10ms objective -> pure budget burn.
  obs::TenantSlot& slot = obs.OpenTenant("tenant-x");
  for (int i = 0; i < 200; ++i) {
    obs.OnFinished(slot, RequestObs::Outcome::kCompleted,
                   /*total_seconds=*/0.5, nullptr, /*request_id=*/i, "OK",
                   "tenant-x", cost);
  }
  EXPECT_GE(obs.slo()->total_breaches(), 1u);
  EXPECT_EQ(obs.flight_recorder()->dumps_written(), 1u);
  ASSERT_EQ(obs.flight_recorder()->dump_paths().size(), 1u);
  const std::string doc = ReadFile(obs.flight_recorder()->dump_paths()[0]);
  EXPECT_NE(doc.find("\"tenant\": \"tenant-x\""), std::string::npos);
  // The accounts table made it into the dump with the charged tenant.
  EXPECT_NE(doc.find("\"accounts\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fast
