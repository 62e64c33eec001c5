// bench_update: query throughput under online graph updates. Client threads
// hammer the service (as in bench_service) while a writer thread applies
// random edge-churn deltas and publishes a new snapshot every
// --swap-every-ms. The quantity under test is the epoch-based swap path
// (src/service/match_service.h): queries must keep completing in every
// inter-swap window — a window with zero completions is a service-wide
// stall, and the run exits non-zero so the CI smoke step fails.
//
//   bench_update [--sf 0.3] [--duration 3] [--clients 8] [--workers 0]
//                [--queries 0,1,2] [--swap-every-ms 200] [--churn 16]
//                [--min-swaps 10] [--json FILE]
//
// A baseline phase with no writer runs first, so the printed comparison
// shows what snapshot churn costs, and the writer's own ApplyDelta latency
// (p50/p99 over its timed calls) shows what one update costs. Plain binary
// (no google-benchmark), in the style of bench_service.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_serve_common.h"
#include "graph/graph_delta.h"
#include "ldbc/ldbc.h"
#include "service/match_service.h"
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
  std::uint64_t failed = 0;
  std::uint64_t swaps = 0;
  std::uint64_t cache_invalidations = 0;
  bool writer_failed = false;  // a swap errored and the writer stopped early
  // Completed-query counts per inter-swap window (writer phase only).
  std::vector<std::uint64_t> window_completions;
  // Wall time of each svc.ApplyDelta call, in ms (writer phase only).
  std::vector<double> update_ms;

  std::uint64_t MinWindow() const {
    return window_completions.empty()
               ? 0
               : *std::min_element(window_completions.begin(),
                                   window_completions.end());
  }

  // Nearest-rank quantile of update_ms; 0 when no update ran.
  double UpdateMs(double q) const {
    if (update_ms.empty()) return 0.0;
    std::vector<double> sorted = update_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
  }
};

PhaseResult RunPhase(const Graph& graph, const std::vector<QueryGraph>& mix,
                     std::size_t workers, std::size_t clients,
                     double duration_seconds, double swap_every_ms,
                     std::size_t churn, obs::MetricsRegistry* metrics) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 512;
  options.plan_cache_capacity = 64;
  options.run.fpga = ServeBenchFpgaConfig();
  options.metrics = metrics;
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

  PhaseResult r;
  std::thread writer;
  std::atomic<bool> writer_failed{false};
  if (swap_every_ms > 0.0) {
    writer = std::thread([&] {
      Rng rng(0xC4A91);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t completed_at_last_swap = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Sliced sleep so a long interval doesn't delay shutdown.
        Timer interval;
        while (!stop.load(std::memory_order_relaxed) &&
               interval.ElapsedSeconds() * 1e3 < swap_every_ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (stop.load(std::memory_order_relaxed)) break;
        const GraphDelta delta =
            RandomChurnDelta(*svc.snapshot().graph, churn, rng);
        Timer update;
        auto epoch = svc.ApplyDelta(delta);
        r.update_ms.push_back(update.ElapsedSeconds() * 1e3);
        if (!epoch.ok()) {
          std::fprintf(stderr, "swap: %s\n", epoch.status().ToString().c_str());
          writer_failed.store(true);
          break;
        }
        const std::uint64_t completed = svc.stats().completed;
        r.window_completions.push_back(completed - completed_at_last_swap);
        completed_at_last_swap = completed;
      }
    });
  }

  while (ready.load() < clients) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  Timer wall;
  while (wall.ElapsedSeconds() < duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();
  const double elapsed = wall.ElapsedSeconds();

  r.writer_failed = writer_failed.load();
  const ServiceStats stats = svc.stats();
  r.qps = static_cast<double>(stats.completed) / elapsed;
  r.p50_ms = stats.latency.P50() * 1e3;
  r.p99_ms = stats.latency.P99() * 1e3;
  r.hit_rate = stats.cache.HitRate();
  r.completed = stats.completed;
  r.failed = stats.failed;
  r.swaps = stats.graph_swaps;
  r.cache_invalidations = stats.cache.invalidations;
  return r;
}

void WriteJson(const std::string& path, double sf, std::size_t clients,
               double swap_every_ms, const PhaseResult& steady,
               const PhaseResult& churned, const obs::MetricsRegistry& registry) {
  bench::JsonWriter w;
  w.Field("bench", "bench_update");
  w.Field("sf", sf);
  w.Field("clients", static_cast<std::uint64_t>(clients));
  w.Field("swap_every_ms", swap_every_ms);
  const auto phase = [&w](const char* name, const PhaseResult& r) {
    w.BeginObject(name);
    w.Field("qps", r.qps);
    w.Field("p50_ms", r.p50_ms);
    w.Field("p99_ms", r.p99_ms);
    w.Field("completed", r.completed);
    w.Field("failed", r.failed);
  };
  phase("steady", steady);
  w.EndObject();
  phase("churned", churned);
  w.Field("swaps", churned.swaps);
  w.Field("min_window_completions", churned.MinWindow());
  w.Field("cache_invalidations", churned.cache_invalidations);
  w.Field("updates", static_cast<std::uint64_t>(churned.update_ms.size()));
  w.Field("update_p50_ms", churned.UpdateMs(0.50));
  w.Field("update_p99_ms", churned.UpdateMs(0.99));
  w.EndObject();
  w.Field("qps_ratio", steady.qps > 0 ? churned.qps / steady.qps : 0.0);
  bench::EmbedBuildInfo(w);
  bench::EmbedMetrics(w, registry);
  bench::WriteJsonFile(path, w.Finish());
}

int Run(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(
      argc, argv,
      {"sf", "duration", "clients", "workers", "queries", "swap-every-ms",
       "churn", "min-swaps", "json", "help"},
      /*bool_flags=*/{"help"});
  if (!flags.ok() || flags->Has("help")) {
    std::fprintf(stderr,
                 "usage: bench_update [--sf S] [--duration SEC] [--clients N]\n"
                 "                    [--workers N] [--queries I,J,...]\n"
                 "                    [--swap-every-ms MS] [--churn EDGES]\n"
                 "                    [--min-swaps N] [--json FILE]\n%s\n",
                 flags.ok() ? "" : flags.status().ToString().c_str());
    return flags.ok() ? 0 : 2;
  }
  double sf, duration, swap_every_ms;
  std::size_t clients, workers, churn, min_swaps;
  FAST_FLAG_ASSIGN_OR_USAGE(sf, flags->GetDouble("sf", 0.3));
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags->GetDouble("duration", 3.0));
  FAST_FLAG_ASSIGN_OR_USAGE(swap_every_ms, flags->GetDouble("swap-every-ms", 200.0));
  FAST_FLAG_ASSIGN_OR_USAGE(clients, flags->GetSizeT("clients", 8));
  FAST_FLAG_ASSIGN_OR_USAGE(workers, flags->GetSizeT("workers", 0));
  FAST_FLAG_ASSIGN_OR_USAGE(churn, flags->GetSizeT("churn", 16));
  FAST_FLAG_ASSIGN_OR_USAGE(min_swaps, flags->GetSizeT("min-swaps", 10));
  if (swap_every_ms <= 0.0) {
    std::fprintf(stderr, "--swap-every-ms must be > 0\n");
    return 2;
  }
  if (duration * 1e3 < swap_every_ms * static_cast<double>(min_swaps + 1)) {
    std::fprintf(stderr,
                 "--duration %.1fs cannot fit %zu swaps at --swap-every-ms %.0f\n",
                 duration, min_swaps, swap_every_ms);
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
  std::printf("mix: %zu queries, %zu clients, %.1fs per phase, swap every %.0fms "
              "(churn %zu edges)\n\n",
              mix.size(), clients, duration, swap_every_ms, churn);

  obs::MetricsRegistry registry;
  const PhaseResult steady = RunPhase(*graph, mix, workers, clients, duration,
                                      /*swap_every_ms=*/0.0, churn, &registry);
  const PhaseResult churned = RunPhase(*graph, mix, workers, clients, duration,
                                       swap_every_ms, churn, &registry);

  std::printf("%-12s %12s %10s %10s %10s %12s %8s %12s %12s %12s\n", "phase",
              "queries/sec", "p50 ms", "p99 ms", "hit rate", "completed",
              "swaps", "min window", "upd p50 ms", "upd p99 ms");
  auto row = [](const char* name, const PhaseResult& r) {
    std::printf("%-12s %12.1f %10.3f %10.3f %9.1f%% %12llu %8llu %12llu %12.3f %12.3f\n",
                name, r.qps, r.p50_ms, r.p99_ms, r.hit_rate * 100.0,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.swaps),
                static_cast<unsigned long long>(r.MinWindow()), r.UpdateMs(0.50),
                r.UpdateMs(0.99));
  };
  row("steady", steady);
  row("churned", churned);
  std::printf("\nupdate cost: %.2fx queries/sec (%.1f -> %.1f), %llu cache "
              "invalidations\n",
              steady.qps > 0 ? churned.qps / steady.qps : 0.0, steady.qps,
              churned.qps,
              static_cast<unsigned long long>(churned.cache_invalidations));

  const std::string json = flags->GetString("json", "");
  if (!json.empty()) {
    WriteJson(json, sf, clients, swap_every_ms, steady, churned, registry);
  }

  // CI gate: the writer survived, enough consecutive swaps published, and
  // queries completed in every inter-swap window (no service-wide stall).
  if (churned.writer_failed) {
    std::fprintf(stderr,
                 "FAIL: snapshot writer stopped early on a swap error\n");
    return 1;
  }
  if (churned.swaps < min_swaps) {
    std::fprintf(stderr, "FAIL: only %llu swaps published (want >= %zu)\n",
                 static_cast<unsigned long long>(churned.swaps), min_swaps);
    return 1;
  }
  const auto stalled = static_cast<std::size_t>(
      std::count(churned.window_completions.begin(),
                 churned.window_completions.end(), 0u));
  if (stalled > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu of %zu inter-swap windows completed zero queries\n",
                 stalled, churned.window_completions.size());
    return 1;
  }
  if (churned.failed > 0) {
    std::fprintf(stderr, "FAIL: %llu queries failed under churn\n",
                 static_cast<unsigned long long>(churned.failed));
    return 1;
  }
  std::printf("OK: %llu swaps, every window completed queries\n",
              static_cast<unsigned long long>(churned.swaps));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
