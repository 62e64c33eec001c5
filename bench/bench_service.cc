// bench_service: fixed-duration throughput/latency benchmark of the
// concurrent query-serving layer (src/service/), in the style of silo's
// bench_runner: spawn client threads, hold a start barrier, hammer the
// service for a fixed wall-clock window, then aggregate queries/sec.
//
//   bench_service [--sf 0.3] [--duration 3] [--clients 8] [--workers 0]
//                 [--queries 0,1,2] [--deadline-ms 0] [--json FILE]
//                 [--profile-hz HZ] [--profile-out FILE] [--chrome-trace FILE]
//
// --json FILE writes the two phases as a machine-readable summary (the CI
// smoke step uploads it as the BENCH_service.json workflow artifact).
//
// Runs the same repeated-query workload twice — plan cache enabled and
// disabled — and prints both, so the cache's effect on throughput is part of
// the benchmark output. Unlike the per-figure binaries this is a plain
// binary (no google-benchmark): the quantity under test is sustained service
// throughput, not per-call time.
//
// --profile-hz HZ adds a fourth phase repeating cache-on with the stage
// sampling profiler (src/obs/profiler.h) running at HZ: the qps delta vs the
// plain cache-on phase is reported as profiler_overhead_pct (CI gates it
// < 3%). --profile-out writes that phase's collapsed-stack profile and
// --chrome-trace its trace-event timeline.
//
// Two further phases A/B the SIMD kernel layer (src/simd/) end to end:
// cache off + cpu_share_delta=0.9, so every request rebuilds its CST and
// routes ~90% of partition work through MatchCstOnCpu, first with the scalar
// kernels forced and then with the best available level (or the one forced
// via --simd=scalar|swar|avx2|neon). The ratio is reported as simd_speedup
// (CI gates >= 1.0x), and per-query match counts are verified identical
// across every available level before the phases run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_serve_common.h"
#include "core/cpu_matcher.h"
#include "cst/cst.h"
#include "ldbc/ldbc.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "query/matching_order.h"
#include "service/match_service.h"
#include "simd/intersect.h"
#include "tools/flag_parser.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace fast;
using bench::ServeBenchFpgaConfig;
using service::MatchService;
using service::ServiceOptions;
using service::ServiceStats;

struct PhaseResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
};

PhaseResult RunPhase(const Graph& graph, const std::vector<QueryGraph>& mix,
                     std::size_t cache_capacity, std::size_t workers,
                     std::size_t clients, double duration_seconds,
                     double deadline_seconds, obs::MetricsRegistry* metrics,
                     bool tracing,
                     std::vector<std::shared_ptr<const obs::CompletedTrace>>*
                         traces_out = nullptr,
                     std::vector<obs::InstantEvent>* events_out = nullptr,
                     double cpu_share_delta = 0.0) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 512;
  options.plan_cache_capacity = cache_capacity;
  options.default_deadline_seconds = deadline_seconds;
  options.run.fpga = ServeBenchFpgaConfig();
  options.run.cpu_share_delta = cpu_share_delta;
  options.metrics = metrics;
  options.tracing = tracing;
  MatchService svc(graph, options);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0x5110 + c);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryGraph& q = mix[rng.Uniform(mix.size())];
        auto id = svc.Submit(q);
        if (!id.ok()) continue;  // admission control: queue full
        svc.Wait(*id);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();

  go.store(true, std::memory_order_release);  // bombs away (silo barrier_b)
  Timer wall;
  while (wall.ElapsedSeconds() < duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();

  const ServiceStats stats = svc.stats();
  PhaseResult r;
  r.qps = static_cast<double>(stats.completed) / elapsed;
  r.p50_ms = stats.latency.P50() * 1e3;
  r.p99_ms = stats.latency.P99() * 1e3;
  r.hit_rate = stats.cache.HitRate();
  r.completed = stats.completed;
  r.rejected = stats.rejected_queue_full + stats.rejected_deadline;
  if (traces_out != nullptr) *traces_out = svc.recent_traces();
  if (events_out != nullptr) *events_out = svc.request_obs()->recent_events();
  return r;
}

// Single-threaded per-query match counts under the active kernel level (CPU
// matcher all the way: this is the bit-identical-results check behind the
// SIMD A/B phases).
std::vector<std::uint64_t> CountMatches(const Graph& graph,
                                        const std::vector<QueryGraph>& mix) {
  std::vector<std::uint64_t> counts;
  counts.reserve(mix.size());
  for (const QueryGraph& q : mix) {
    const auto order = ComputeMatchingOrder(q, graph, OrderPolicy::kPathBased);
    FAST_CHECK_OK(order.status());
    const auto cst = BuildCst(q, graph, order->root);
    FAST_CHECK_OK(cst.status());
    const auto count = MatchCstOnCpu(*cst, *order, nullptr);
    FAST_CHECK_OK(count.status());
    counts.push_back(*count);
  }
  return counts;
}

int Run(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(
      argc, argv,
      {"sf", "duration", "clients", "workers", "queries", "deadline-ms",
       "json", "simd", "profile-hz", "profile-out", "chrome-trace", "help"},
      /*bool_flags=*/{"help"});
  if (!flags.ok() || flags->Has("help")) {
    std::fprintf(stderr,
                 "usage: bench_service [--sf S] [--duration SEC] [--clients N]\n"
                 "                     [--workers N] [--queries I,J,...]\n"
                 "                     [--deadline-ms MS] [--json FILE]\n"
                 "                     [--simd scalar|swar|avx2|neon|auto]\n"
                 "                     [--profile-hz HZ] [--profile-out FILE]\n"
                 "                     [--chrome-trace FILE]\n%s\n",
                 flags.ok() ? "" : flags.status().ToString().c_str());
    return flags.ok() ? 0 : 2;
  }
  const std::string simd_flag = flags->GetString("simd", "auto");
  if (!simd::SetActiveByName(simd_flag)) {
    std::fprintf(stderr, "--simd=%s: unknown or unavailable (have: %s)\n",
                 simd_flag.c_str(), simd::AvailableLevelsString().c_str());
    return 2;
  }
  double sf, duration, deadline_ms;
  std::size_t clients, workers;
  FAST_FLAG_ASSIGN_OR_USAGE(sf, flags->GetDouble("sf", 0.3));
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags->GetDouble("duration", 3.0));
  FAST_FLAG_ASSIGN_OR_USAGE(deadline_ms, flags->GetDouble("deadline-ms", 0.0));
  FAST_FLAG_ASSIGN_OR_USAGE(clients, flags->GetSizeT("clients", 8));
  FAST_FLAG_ASSIGN_OR_USAGE(workers, flags->GetSizeT("workers", 0));
  double profile_hz;
  FAST_FLAG_ASSIGN_OR_USAGE(profile_hz, flags->GetDouble("profile-hz", 0.0));
  const std::string profile_out = flags->GetString("profile-out", "");
  const std::string chrome_trace = flags->GetString("chrome-trace", "");
  if ((!profile_out.empty() || !chrome_trace.empty()) && profile_hz <= 0.0) {
    std::fprintf(stderr, "--profile-out/--chrome-trace need --profile-hz (the "
                         "profile phase produces them)\n");
    return 2;
  }

  LdbcConfig config;
  config.scale_factor = sf;
  config.seed = 42;
  auto graph = GenerateLdbcGraph(config);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("data: %s\n", graph->Summary().c_str());

  auto mix_or = ParseLdbcQueryMix(flags->GetString("queries", "0,1,2"));
  if (!mix_or.ok()) {
    std::fprintf(stderr, "%s\n", mix_or.status().ToString().c_str());
    return 2;
  }
  std::vector<QueryGraph> mix = std::move(*mix_or);
  if (mix.empty()) {
    std::fprintf(stderr, "--queries: no queries specified\n");
    return 2;
  }
  std::printf("mix: %zu queries, %zu clients, %.1fs per phase\n\n", mix.size(),
              clients, duration);

  // The cache phases run with full observability on (registry + tracing) —
  // that is the production configuration. The extra obs-off phase repeats
  // cache-on with both disabled, so the A/B quantifies what the metrics and
  // tracing hot paths cost (acceptance gate: < 3% qps).
  obs::MetricsRegistry registry;
  const PhaseResult off =
      RunPhase(*graph, mix, /*cache_capacity=*/0, workers, clients, duration,
               deadline_ms / 1e3, &registry, /*tracing=*/true);
  const PhaseResult on =
      RunPhase(*graph, mix, /*cache_capacity=*/64, workers, clients, duration,
               deadline_ms / 1e3, &registry, /*tracing=*/true);
  const PhaseResult obs_off =
      RunPhase(*graph, mix, /*cache_capacity=*/64, workers, clients, duration,
               deadline_ms / 1e3, /*metrics=*/nullptr, /*tracing=*/false);

  // SIMD A/B. Counts first: every available kernel level must produce the
  // same per-query match counts before its throughput means anything.
  const simd::Level simd_level = simd::ActiveLevel();
  bool simd_counts_identical = true;
  {
    simd::SetActive(simd::Level::kScalar);
    const std::vector<std::uint64_t> truth = CountMatches(*graph, mix);
    for (int i = 0; i < simd::kNumLevels; ++i) {
      const auto level = static_cast<simd::Level>(i);
      if (level == simd::Level::kScalar || !simd::LevelAvailable(level)) continue;
      simd::SetActive(level);
      if (CountMatches(*graph, mix) != truth) {
        simd_counts_identical = false;
        std::fprintf(stderr, "SIMD CONSISTENCY FAILURE: --simd=%s match counts "
                             "diverge from scalar\n",
                     simd::LevelName(level));
      }
    }
  }
  // CPU-mode throughput: cache off (BuildCst per request) and 90% of
  // partition work routed to MatchCstOnCpu. The two levels run interleaved
  // (scalar, best, scalar, best) in half-duration rounds so slow drift on a
  // shared box — CPU throttling, a noisy neighbor — hits both sides equally
  // instead of biasing whichever phase ran second.
  constexpr double kCpuShare = 0.9;
  constexpr int kSimdRounds = 2;
  PhaseResult simd_scalar, simd_best;
  for (int round = 0; round < kSimdRounds; ++round) {
    simd::SetActive(simd::Level::kScalar);
    const PhaseResult rs =
        RunPhase(*graph, mix, /*cache_capacity=*/0, workers, clients,
                 duration / kSimdRounds, deadline_ms / 1e3, &registry,
                 /*tracing=*/true, nullptr, nullptr, kCpuShare);
    simd::SetActive(simd_level);
    const PhaseResult rb =
        RunPhase(*graph, mix, /*cache_capacity=*/0, workers, clients,
                 duration / kSimdRounds, deadline_ms / 1e3, &registry,
                 /*tracing=*/true, nullptr, nullptr, kCpuShare);
    const auto add = [](PhaseResult* acc, const PhaseResult& r) {
      acc->qps += r.qps / kSimdRounds;
      acc->p50_ms = std::max(acc->p50_ms, r.p50_ms);
      acc->p99_ms = std::max(acc->p99_ms, r.p99_ms);
      acc->completed += r.completed;
      acc->rejected += r.rejected;
    };
    add(&simd_scalar, rs);
    add(&simd_best, rb);
  }
  const double simd_speedup =
      simd_scalar.qps > 0 ? simd_best.qps / simd_scalar.qps : 0.0;

  // Profile phase: cache-on repeated with the stage sampler running. The
  // A/B against the plain cache-on phase is the profiler's qps overhead.
  PhaseResult prof;
  double profiler_overhead_pct = 0.0;
  std::vector<std::shared_ptr<const obs::CompletedTrace>> prof_traces;
  std::vector<obs::InstantEvent> prof_events;
  if (profile_hz > 0.0) {
    obs::Profiler::Default()->BindMetrics(&registry);
    obs::Profiler::Default()->Start(profile_hz);
    prof = RunPhase(*graph, mix, /*cache_capacity=*/64, workers, clients,
                    duration, deadline_ms / 1e3, &registry, /*tracing=*/true,
                    &prof_traces, &prof_events);
    obs::Profiler::Default()->Stop();
    profiler_overhead_pct =
        on.qps > 0 ? (on.qps - prof.qps) / on.qps * 100.0 : 0.0;
  }

  std::printf("%-12s %12s %10s %10s %10s %12s %10s\n", "phase", "queries/sec",
              "p50 ms", "p99 ms", "hit rate", "completed", "rejected");
  auto row = [](const char* name, const PhaseResult& r) {
    std::printf("%-12s %12.1f %10.3f %10.3f %9.1f%% %12llu %10llu\n", name, r.qps,
                r.p50_ms, r.p99_ms, r.hit_rate * 100.0,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.rejected));
  };
  row("cache-off", off);
  row("cache-on", on);
  row("obs-off", obs_off);
  char simd_row[32];
  std::snprintf(simd_row, sizeof(simd_row), "simd-%s",
                simd::LevelName(simd_level));
  row("simd-scalar", simd_scalar);
  row(simd_row, simd_best);
  if (profile_hz > 0.0) row("profile-on", prof);
  std::printf("\ncache speedup: %.2fx queries/sec (%.1f -> %.1f)\n",
              off.qps > 0 ? on.qps / off.qps : 0.0, off.qps, on.qps);
  std::printf("simd speedup (%s vs scalar, cpu-mode): %.2fx (%.1f -> %.1f), "
              "counts %s\n",
              simd::LevelName(simd_level), simd_speedup, simd_scalar.qps,
              simd_best.qps, simd_counts_identical ? "identical" : "DIVERGED");
  const double obs_overhead_pct =
      obs_off.qps > 0 ? (obs_off.qps - on.qps) / obs_off.qps * 100.0 : 0.0;
  std::printf("obs overhead: %.2f%% qps (obs-on %.1f vs obs-off %.1f)\n",
              obs_overhead_pct, on.qps, obs_off.qps);
  if (profile_hz > 0.0) {
    std::printf("profiler overhead: %.2f%% qps at %g Hz (profile-on %.1f vs "
                "cache-on %.1f)\n",
                profiler_overhead_pct, profile_hz, prof.qps, on.qps);
  }

  if (!profile_out.empty()) {
    bench::WriteJsonFile(
        profile_out, obs::CollapsedStacks(obs::Profiler::Default()->Snapshot()));
    std::printf("profile: wrote %s\n", profile_out.c_str());
  }
  if (!chrome_trace.empty()) {
    obs::ChromeTraceInputs in;
    in.process_name = "bench_service";
    in.traces = prof_traces;
    const obs::ProfileSnapshot prof_snap = obs::Profiler::Default()->Snapshot();
    in.threads = prof_snap.threads;
    in.stage_samples = obs::Profiler::Default()->TimelineSnapshot();
    in.sample_period_seconds = 1.0 / profile_hz;
    in.instants = prof_events;
    bench::WriteJsonFile(chrome_trace, obs::ChromeTraceJson(in));
    std::printf("timeline: wrote %s (%zu traces, %zu stage samples)\n",
                chrome_trace.c_str(), in.traces.size(),
                in.stage_samples.size());
  }

  const std::string json = flags->GetString("json", "");
  if (!json.empty()) {
    bench::JsonWriter w;
    w.Field("bench", "bench_service");
    w.Field("sf", sf);
    w.Field("clients", static_cast<std::uint64_t>(clients));
    w.Field("duration_s", duration);
    const auto phase = [&w](const char* name, const PhaseResult& r,
                            bool with_hit_rate) {
      w.BeginObject(name);
      w.Field("qps", r.qps);
      w.Field("p50_ms", r.p50_ms);
      w.Field("p99_ms", r.p99_ms);
      if (with_hit_rate) w.Field("hit_rate", r.hit_rate);
      w.Field("completed", r.completed);
      w.Field("rejected", r.rejected);
      w.EndObject();
    };
    phase("cache_off", off, /*with_hit_rate=*/false);
    phase("cache_on", on, /*with_hit_rate=*/true);
    phase("obs_off", obs_off, /*with_hit_rate=*/true);
    phase("simd_scalar", simd_scalar, /*with_hit_rate=*/false);
    phase("simd_best", simd_best, /*with_hit_rate=*/false);
    if (profile_hz > 0.0) phase("profile_on", prof, /*with_hit_rate=*/true);
    w.Field("cache_speedup", off.qps > 0 ? on.qps / off.qps : 0.0);
    w.Field("simd_best_level", simd::LevelName(simd_level));
    w.Field("simd_speedup", simd_speedup);
    w.Field("simd_counts_identical", simd_counts_identical);
    w.Field("obs_overhead_pct", obs_overhead_pct);
    if (profile_hz > 0.0) {
      w.Field("profile_hz", profile_hz);
      w.Field("profiler_overhead_pct", profiler_overhead_pct);
    }
    bench::EmbedBuildInfo(w);
    bench::EmbedMetrics(w, registry);
    if (!bench::WriteJsonFile(json, w.Finish())) return 1;
  }
  return simd_counts_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
