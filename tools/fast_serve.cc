// fast_serve: serve a stream of subgraph-matching queries from a worker pool
// over one shared data graph, with the plan cache in front of the
// pipeline (src/service/).
//
// Replay mode (default): submit a query mix for a fixed duration from
// concurrent client threads and print service-level stats.
//
//   fast_serve --sf 0.5 --queries 0,1,2 --duration 5 --workers 8
//              [--clients 4] [--cache-size 64] [--queue 256]
//              [--deadline-ms 0] [--delta 0.1] [--variant sep] [--no-cache]
//
// One-shot mode: --once runs each query exactly once and prints its count
// and latency (useful for smoke tests and scripting).
//
// Online updates (epoch-based snapshot swap, src/service/match_service.h):
//   --update F1[,F2,...]  delta files (graph/graph_delta.h text format).
//                         In --once mode each delta is applied in turn and
//                         the query list re-runs after every swap, printing
//                         the published epoch. In replay mode the files are
//                         cycled by the --swap-every-ms writer.
//   --reload FILE         --once mode only: swap in a whole replacement
//                         graph (t/v/e format) and re-run the queries.
//   --swap-every-ms MS    replay mode: a writer thread publishes a new
//                         snapshot every MS ms — the --update deltas cycled,
//                         or random edge churn (--churn N) when none given —
//                         while clients keep querying.
//
// The data graph is either --data FILE (t/v/e text format) or a generated
// LDBC-SNB-like graph at --sf SCALE; --queries picks LDBC benchmark query
// indices (comma-separated), or pass query files as positional arguments.
//
// Multi-tenant serving (src/tenant/tenant_router.h):
//   --tenants N           replay N LDBC graphs (seeds seed..seed+N-1) behind
//                         ONE shared worker pool with per-tenant admission
//                         quotas and weighted round-robin dispatch. Clients
//                         pick tenants Zipf(--zipf-s)-skewed (0 = uniform).
//                         Requires --sf; replay mode only.
//   --quota N             per-tenant cap on queued requests (0 = global only)
//   --weights W1,...,WN   per-tenant WRR weights (default: all 1)
//   --zipf-s S            tenant-pick skew; tenant 0 is the hottest
//   With --swap-every-ms, the writer churns the tenants round-robin, so the
//   per-tenant epochs advance independently.
//
// Shared device executor (src/device/device_executor.h):
//   --device              route partition matching to ONE shared simulated
//                         FPGA: workers decompose queries into CST-partition
//                         work items and a batch scheduler coalesces items
//                         from concurrent queries — across tenants — into
//                         device rounds with one PCIe transfer per round.
//   --batch-window-us US  how long a non-full batch is held open for
//                         stragglers from other queries (default 200)
//   --max-batch N         max partitions per device round (1 = unbatched)
//
// Transport mode (src/net/):
//   --listen              serve the binary wire protocol over TCP instead of
//                         driving in-process replay clients. Works single-
//                         graph and with --tenants N (the SUBMIT frame's
//                         tenant id routes). Prints the bound address, then
//                         serves for --duration seconds, or until stdin
//                         closes when no --duration is given.
//   --host H / --port P   bind address (default 127.0.0.1, ephemeral port)
//   --max-inflight N      per-connection in-flight window advertised in
//                         HELLO_ACK; beyond it SUBMITs get PUSHBACK (64)
//
// Admin plane (src/net/admin_http.h), available in every serving mode:
//   --admin-port P        serve GET-only HTTP introspection on 127.0.0.1:P
//                         (0 = ephemeral; the bound port is printed):
//                         /metrics /metrics.json /traces/recent /traces/slow
//                         /tenants /slo /healthz /varz
//   --slo-ms MS           per-tenant latency objective: a request is GOOD
//                         when it finishes OK within MS ms (0 = SLO off)
//   --slo-target F        good-request fraction objective (default 0.999)
//   --flight-dir DIR      on an SLO breach, write one rate-limited flight-
//                         recorder JSON dump (metrics + traces + accounts)
//                         into DIR
//
// Profiling plane (src/obs/profiler.h), available in every serving mode:
//   --profile-hz HZ       start the stage-annotated sampling profiler at HZ
//                         samples/sec (also scrape-able live via the admin
//                         endpoints /profile, /profile/flame, /locks,
//                         /timeline/chrome)
//   --profile-out FILE    write the final collapsed-stack profile to FILE
//                         (flamegraph.pl input)
//   --chrome-trace FILE   write a Chrome trace-event timeline (request spans,
//                         device rounds, sampled stages, instant events) to
//                         FILE at exit; load in Perfetto or chrome://tracing

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "ldbc/ldbc.h"
#include "net/admin_http.h"
#include "net/wire_server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "service/match_service.h"
#include "simd/intersect.h"
#include "tenant/tenant_router.h"
#include "tools/flag_parser.h"
#include "util/build_info.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace fast;
using service::MatchService;
using service::RequestOptions;
using service::ServiceOptions;

// Observability exports (src/obs/): where to write the final registry
// snapshot, the Prometheus text dump, and the retained-trace JSONL.
struct ObsConfig {
  std::string metrics_json;
  std::string metrics_prom;
  std::string trace_log;
  std::string profile_out;   // collapsed stacks at exit
  std::string chrome_trace;  // trace-event timeline at exit
  double sample_ms = 100.0;  // periodic-sampler interval
};

// Background gauge sampler: polls the serving gauges the components maintain
// (queue depth, cache bytes, device occupancy) into bounded time-series that
// --metrics-json exports. Started only when that export is requested.
std::unique_ptr<obs::PeriodicSampler> StartGaugeSampler(
    obs::MetricsRegistry* registry, double sample_ms) {
  auto sampler = std::make_unique<obs::PeriodicSampler>(
      registry, sample_ms / 1e3, [registry] {
        std::vector<std::pair<std::string, double>> out;
        for (const char* name :
             {"fast_service_queue_depth", "fast_plan_cache_bytes",
              "fast_device_queue_depth", "fast_device_occupancy"}) {
          out.emplace_back(name, registry->GetGauge(name)->Value());
        }
        return out;
      });
  sampler->Start();
  return sampler;
}

// Writes the requested export files at the end of a run. Returns nonzero when
// a requested file could not be written. `frontend` feeds the Chrome-trace
// timeline its device rounds and instant events; null degrades to spans only.
int WriteObsOutputs(
    const ObsConfig& cfg, obs::MetricsRegistry& registry,
    const obs::PeriodicSampler* sampler,
    const std::vector<std::shared_ptr<const obs::CompletedTrace>>& traces,
    const service::Frontend* frontend) {
  if (!cfg.metrics_json.empty()) {
    JsonWriter w;
    obs::WriteSnapshotJson(w, registry.Snapshot(), "metrics");
    if (sampler != nullptr) sampler->WriteSeriesJson(w, "samples");
    // Wall-span coverage over the retained traces: how much of each request's
    // end-to-end latency the recorded spans explain.
    double cov_sum = 0.0;
    double cov_min = 1.0;
    std::uint64_t covered = 0;
    for (const auto& t : traces) {
      if (!t->ok || t->total_seconds <= 0.0) continue;
      const double c = t->Coverage();
      cov_sum += c;
      cov_min = std::min(cov_min, c);
      ++covered;
    }
    w.BeginObject("trace_summary");
    w.Field("retained", static_cast<std::uint64_t>(traces.size()));
    w.Field("covered", covered);
    w.Field("mean_coverage", covered > 0 ? cov_sum / covered : 0.0);
    w.Field("min_coverage", covered > 0 ? cov_min : 0.0);
    w.EndObject();
    if (!WriteJsonFile(cfg.metrics_json, w.Finish())) return 1;
    std::printf("metrics:     wrote %s\n", cfg.metrics_json.c_str());
  }
  if (!cfg.metrics_prom.empty()) {
    if (!WriteJsonFile(cfg.metrics_prom, obs::ToPrometheusText(registry.Snapshot()))) {
      return 1;
    }
    std::printf("metrics:     wrote %s\n", cfg.metrics_prom.c_str());
  }
  if (!cfg.trace_log.empty()) {
    std::string lines;
    for (const auto& t : traces) {
      lines += obs::TraceToJson(*t);
      lines += '\n';
    }
    if (!WriteJsonFile(cfg.trace_log, lines)) return 1;
    std::printf("traces:      wrote %zu trace%s to %s\n", traces.size(),
                traces.size() == 1 ? "" : "s", cfg.trace_log.c_str());
  }
  if (!cfg.profile_out.empty()) {
    if (!WriteJsonFile(cfg.profile_out,
                       obs::CollapsedStacks(obs::Profiler::Default()->Snapshot()))) {
      return 1;
    }
    std::printf("profile:     wrote %s\n", cfg.profile_out.c_str());
  }
  if (!cfg.chrome_trace.empty()) {
    obs::ChromeTraceInputs in;
    in.process_name = "fast_serve";
    in.traces = traces;
    const obs::ProfileSnapshot snap = obs::Profiler::Default()->Snapshot();
    in.threads = snap.threads;
    in.stage_samples = obs::Profiler::Default()->TimelineSnapshot();
    in.sample_period_seconds = snap.hz > 0.0 ? 1.0 / snap.hz : 0.0;
    if (frontend != nullptr) {
      in.rounds = frontend->device_rounds();
      if (frontend->request_obs() != nullptr) {
        in.instants = frontend->request_obs()->recent_events();
      }
    }
    if (!WriteJsonFile(cfg.chrome_trace, obs::ChromeTraceJson(in))) return 1;
    std::printf("timeline:    wrote %s\n", cfg.chrome_trace.c_str());
  }
  return 0;
}

// Starts the admin HTTP server against `frontend` when --admin-port was
// given (any serving mode); returns null without the flag. The returned
// server must be destroyed before the frontend.
StatusOr<std::unique_ptr<net::AdminHttpServer>> StartAdminServer(
    const tools::FlagParser& flags, service::Frontend* frontend,
    obs::MetricsRegistry* registry, const std::string& flags_echo) {
  if (!flags.Has("admin-port")) {
    return std::unique_ptr<net::AdminHttpServer>();
  }
  FAST_ASSIGN_OR_RETURN(const std::size_t port, flags.GetSizeT("admin-port", 0));
  if (port > 65535) {
    return Status::InvalidArgument("--admin-port: not a TCP port");
  }
  net::AdminHttpOptions aopts;
  aopts.port = static_cast<std::uint16_t>(port);
  auto server = std::make_unique<net::AdminHttpServer>(aopts);
  net::AdminEndpointsOptions eopts;
  eopts.metrics = registry;
  eopts.request_obs = frontend->request_obs();
  eopts.ready = [frontend] { return frontend->ready(); };
  eopts.queue_depth = [frontend] { return frontend->queue_depth(); };
  eopts.flags = flags_echo;
  eopts.profiler = obs::Profiler::Default();
  eopts.device_rounds = [frontend] { return frontend->device_rounds(); };
  net::RegisterAdminEndpoints(*server, std::move(eopts));
  FAST_RETURN_IF_ERROR(server->Start());
  // Scripts parse this line for the ephemeral port; flush past the buffer.
  std::printf("admin: http on 127.0.0.1:%u (/metrics /healthz /tenants /slo "
              "/varz /traces /profile /locks /timeline/chrome)\n",
              server->port());
  std::fflush(stdout);
  return server;
}

StatusOr<std::vector<GraphDelta>> LoadDeltaFiles(const std::string& spec) {
  std::vector<GraphDelta> deltas;
  for (const std::string& path : SplitCsv(spec)) {
    FAST_ASSIGN_OR_RETURN(GraphDelta d, LoadDeltaFile(path));
    deltas.push_back(std::move(d));
  }
  return deltas;
}

StatusOr<std::vector<QueryGraph>> LoadQueryMix(const tools::FlagParser& flags) {
  std::vector<QueryGraph> queries;
  for (const std::string& path : flags.positional()) {
    FAST_ASSIGN_OR_RETURN(Graph g, LoadGraphFile(path));
    FAST_ASSIGN_OR_RETURN(QueryGraph q, QueryGraph::Create(std::move(g), path));
    queries.push_back(std::move(q));
  }
  const std::string spec = flags.GetString("queries", queries.empty() ? "0,1,2" : "");
  FAST_ASSIGN_OR_RETURN(std::vector<QueryGraph> mix, ParseLdbcQueryMix(spec));
  for (QueryGraph& q : mix) queries.push_back(std::move(q));
  if (queries.empty()) return Status::InvalidArgument("no queries specified");
  return queries;
}

// Transport mode (--listen): expose the frontend over the binary wire
// protocol (src/net/wire_server.h) instead of driving in-process replay
// clients. Blocks for --duration seconds, or until stdin reaches EOF when no
// duration is given — so `fast_serve --listen &` under a script dies with the
// script, and an interactive run stops on Ctrl-D.
int RunListen(
    service::Frontend* frontend, const tools::FlagParser& flags,
    const ObsConfig& obs_cfg, obs::MetricsRegistry* registry,
    const std::function<std::vector<std::shared_ptr<const obs::CompletedTrace>>()>&
        traces) {
  net::WireServerOptions wopts;
  wopts.host = flags.GetString("host", "127.0.0.1");
  std::size_t port, max_inflight;
  double duration;
  FAST_FLAG_ASSIGN_OR_USAGE(port, flags.GetSizeT("port", 0));
  FAST_FLAG_ASSIGN_OR_USAGE(max_inflight, flags.GetSizeT("max-inflight", 64));
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags.GetDouble("duration", 0.0));
  if (port > 65535) {
    std::fprintf(stderr, "--port: %zu is not a TCP port\n", port);
    return 2;
  }
  wopts.port = static_cast<std::uint16_t>(port);
  wopts.max_inflight_per_conn = static_cast<std::uint32_t>(max_inflight);
  wopts.metrics = registry;
  wopts.tracing = !flags.Has("no-trace");

  net::WireServer server(frontend, wopts);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "listen: %s\n", s.ToString().c_str());
    return 1;
  }
  // Scripts parse this line for the ephemeral port; flush past the buffer.
  std::printf("listen: wire protocol on %s:%u (window %zu/conn)%s\n",
              wopts.host.c_str(), server.port(), max_inflight,
              duration > 0.0 ? "" : ", close stdin to stop");
  std::fflush(stdout);

  std::unique_ptr<obs::PeriodicSampler> sampler;
  if (!obs_cfg.metrics_json.empty()) {
    sampler = StartGaugeSampler(registry, obs_cfg.sample_ms);
  }
  if (duration > 0.0) {
    Timer wall;
    while (wall.ElapsedSeconds() < duration) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } else {
    while (std::getchar() != EOF) {
    }
  }
  server.Shutdown();
  if (sampler != nullptr) sampler->Stop();

  const auto stats = server.stats();
  std::printf("wire:        connections=%llu frames rx=%llu tx=%llu "
              "submits=%llu\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.submits));
  std::printf("pushback:    queue=%llu conn=%llu errors=%llu "
              "protocol_errors=%llu\n",
              static_cast<unsigned long long>(stats.pushback_queue),
              static_cast<unsigned long long>(stats.pushback_conn),
              static_cast<unsigned long long>(stats.errors_sent),
              static_cast<unsigned long long>(stats.protocol_errors));
  return WriteObsOutputs(obs_cfg, *registry, sampler.get(), traces(), frontend);
}

// Multi-tenant replay: N generated graphs behind one TenantRouter, clients
// picking tenants Zipf-skewed, an optional writer churning the tenants
// round-robin. Invoked by Run() when --tenants > 1.
int RunMultiTenant(const tools::FlagParser& flags, const ServiceOptions& options,
                   const std::vector<QueryGraph>& queries,
                   std::vector<Graph> graphs, std::size_t store,
                   const ObsConfig& obs_cfg, obs::MetricsRegistry* registry,
                   const std::string& flags_echo) {
  const std::size_t num_tenants = graphs.size();
  double duration, zipf_s, swap_every_ms;
  std::size_t clients, quota, churn;
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags.GetDouble("duration", 5.0));
  FAST_FLAG_ASSIGN_OR_USAGE(clients, flags.GetSizeT("clients", 4));
  FAST_FLAG_ASSIGN_OR_USAGE(zipf_s, flags.GetDouble("zipf-s", 0.0));
  FAST_FLAG_ASSIGN_OR_USAGE(quota, flags.GetSizeT("quota", 0));
  FAST_FLAG_ASSIGN_OR_USAGE(swap_every_ms, flags.GetDouble("swap-every-ms", 0.0));
  FAST_FLAG_ASSIGN_OR_USAGE(churn, flags.GetSizeT("churn", 16));
  clients = std::max<std::size_t>(clients, 1);

  std::vector<std::uint32_t> weights(num_tenants, 1);
  const std::string weight_spec = flags.GetString("weights", "");
  if (!weight_spec.empty()) {
    const std::vector<std::string> parts = SplitCsv(weight_spec);
    if (parts.size() != num_tenants) {
      std::fprintf(stderr, "--weights: want %zu comma-separated values, got %zu\n",
                   num_tenants, parts.size());
      return 2;
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
      char* end = nullptr;
      const unsigned long w = std::strtoul(parts[i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || w == 0) {
        std::fprintf(stderr, "--weights: '%s' is not a positive integer\n",
                     parts[i].c_str());
        return 2;
      }
      weights[i] = static_cast<std::uint32_t>(w);
    }
  }

  // RouterOptions IS the shared pool/obs configuration: copy the common base
  // in one assignment (the per-graph cache fields move to TenantOptions).
  tenant::RouterOptions ropts;
  static_cast<service::CommonServingOptions&>(ropts) = options;
  tenant::TenantRouter router(ropts);

  std::vector<std::string> ids;
  for (std::size_t i = 0; i < num_tenants; ++i) {
    tenant::TenantOptions topts;
    topts.plan_cache_capacity = options.plan_cache_capacity;
    topts.plan_cache_byte_budget = options.plan_cache_byte_budget;
    topts.max_queued = quota;
    topts.weight = weights[i];
    ids.push_back("t" + std::to_string(i));
    const Status s = router.AddTenant(ids.back(), std::move(graphs[i]), topts);
    if (!s.ok()) {
      std::fprintf(stderr, "tenant %s: %s\n", ids.back().c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  std::printf("serve: %zu tenants, %zu shared workers, queue=%zu, quota=%zu, "
              "zipf s=%g\n",
              num_tenants, router.num_workers(), ropts.queue_capacity, quota,
              zipf_s);

  auto admin = StartAdminServer(flags, &router, registry, flags_echo);
  if (!admin.ok()) {
    std::fprintf(stderr, "admin: %s\n", admin.status().ToString().c_str());
    return 1;
  }

  if (flags.Has("listen")) {
    return RunListen(&router, flags, obs_cfg, registry,
                     [&router] { return router.recent_traces(); });
  }

  std::unique_ptr<obs::PeriodicSampler> sampler;
  if (!obs_cfg.metrics_json.empty()) {
    sampler = StartGaugeSampler(registry, obs_cfg.sample_ms);
  }

  const std::vector<double> cdf = ZipfCdf(num_tenants, zipf_s);
  std::atomic<bool> stop{false};
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Rng rng(0x7E4A47 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t t = SampleCdf(cdf, rng);
        const QueryGraph& q = queries[rng.Uniform(queries.size())];
        RequestOptions ropts_req;
        ropts_req.store_limit = store;
        auto id = router.Submit(ids[t], q, ropts_req);
        if (!id.ok()) continue;  // global or per-tenant admission control
        router.Wait(*id);
      }
    });
  }
  // Optional writer: churn the tenants round-robin, one swap per interval,
  // so every tenant's epoch advances independently of the others.
  std::thread writer;
  std::atomic<bool> writer_failed{false};
  if (swap_every_ms > 0.0) {
    writer = std::thread([&] {
      Rng rng(0xD317A);
      std::size_t next_tenant = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Timer interval;
        while (!stop.load(std::memory_order_relaxed) &&
               interval.ElapsedSeconds() * 1e3 < swap_every_ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (stop.load(std::memory_order_relaxed)) break;
        const std::string& id = ids[next_tenant++ % ids.size()];
        auto snap = router.snapshot(id);
        if (!snap.ok()) {
          writer_failed.store(true);
          break;
        }
        const GraphDelta delta = RandomChurnDelta(*snap->graph, churn, rng);
        auto epoch = router.ApplyDelta(id, delta);
        if (!epoch.ok()) {
          std::fprintf(stderr, "swap %s: %s\n", id.c_str(),
                       epoch.status().ToString().c_str());
          writer_failed.store(true);
          break;
        }
      }
    });
  }

  Timer wall;
  while (wall.ElapsedSeconds() < duration) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true);
  for (auto& t : client_threads) t.join();
  if (writer.joinable()) writer.join();
  if (sampler != nullptr) sampler->Stop();

  const auto stats = router.stats();
  const double elapsed = wall.ElapsedSeconds();
  std::printf("\n--- %.1fs multi-tenant replay, %zu client thread%s ---\n",
              elapsed, clients, clients == 1 ? "" : "s");
  std::printf("aggregate:   %.1f queries/sec | %s\n",
              static_cast<double>(stats.completed) / elapsed,
              stats.Summary().c_str());
  std::printf("%-8s %8s %12s %10s %10s %10s %8s %8s %10s\n", "tenant", "wgt",
              "completed", "p50 ms", "p99 ms", "rejected", "epoch", "swaps",
              "hit rate");
  for (const auto& t : stats.tenants) {
    std::printf("%-8s %8u %12llu %10.3f %10.3f %10llu %8llu %8llu %9.1f%%\n",
                t.id.c_str(), t.weight,
                static_cast<unsigned long long>(t.completed),
                t.latency.P50() * 1e3, t.latency.P99() * 1e3,
                static_cast<unsigned long long>(t.rejected_queue_full +
                                                t.rejected_quota),
                static_cast<unsigned long long>(t.epoch),
                static_cast<unsigned long long>(t.graph_swaps),
                t.cache.HitRate() * 100.0);
  }
  if (stats.device_mode) {
    std::printf("device:      %s\n", stats.device.Summary().c_str());
  }
  if (int rc = WriteObsOutputs(obs_cfg, *registry, sampler.get(),
                               router.recent_traces(), &router);
      rc != 0) {
    return rc;
  }
  if (writer_failed.load()) {
    std::fprintf(stderr, "error: snapshot writer stopped early (see above)\n");
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(
      argc, argv,
      {"data", "sf", "seed", "queries", "duration", "workers", "clients",
       "cache-size", "cache-bytes", "queue", "deadline-ms", "delta", "variant",
       "store", "update", "reload", "swap-every-ms", "churn", "tenants",
       "zipf-s", "quota", "weights", "device", "batch-window-us", "max-batch",
       "metrics-json", "metrics-prom", "trace-log", "slow-ms", "sample-ms",
       "profile-hz", "profile-out", "chrome-trace",
       "listen", "host", "port", "max-inflight",
       "admin-port", "slo-ms", "slo-target", "flight-dir",
       "simd", "no-trace", "no-cache", "once", "help"},
      /*bool_flags=*/{"device", "listen", "no-trace", "no-cache", "once",
                      "help"});
  if (!flags.ok() || flags->Has("help")) {
    std::fprintf(
        stderr,
        "usage: fast_serve (--data FILE | --sf SCALE) [QUERY_FILE...]\n"
        "                  [--queries I,J,...] [--duration S] [--workers N]\n"
        "                  [--clients N] [--cache-size N] [--cache-bytes B]\n"
        "                  [--queue N] [--deadline-ms MS] [--delta D]\n"
        "                  [--variant V] [--store N]\n"
        "                  [--update DELTA[,DELTA...]] [--reload GRAPH]\n"
        "                  [--swap-every-ms MS] [--churn N]\n"
        "                  [--tenants N] [--zipf-s S] [--quota N]\n"
        "                  [--weights W1,...,WN]\n"
        "                  [--device] [--batch-window-us US] [--max-batch N]\n"
        "                  [--listen] [--host H] [--port P] [--max-inflight N]\n"
        "                  [--metrics-json FILE] [--metrics-prom FILE]\n"
        "                  [--trace-log FILE] [--slow-ms MS] [--sample-ms MS]\n"
        "                  [--profile-hz HZ] [--profile-out FILE]\n"
        "                  [--chrome-trace FILE]\n"
        "                  [--admin-port P] [--slo-ms MS] [--slo-target F]\n"
        "                  [--flight-dir DIR]\n"
        "                  [--simd scalar|swar|avx2|neon|auto]\n"
        "                  [--no-trace] [--no-cache] [--once]\n%s\n",
        flags.ok() ? "" : flags.status().ToString().c_str());
    return flags.ok() ? 0 : 2;
  }
  const std::string simd_flag = flags->GetString("simd", "auto");
  if (!simd::SetActiveByName(simd_flag)) {
    std::fprintf(stderr, "--simd=%s: unknown or unavailable (have: %s)\n",
                 simd_flag.c_str(), simd::AvailableLevelsString().c_str());
    return 2;
  }
  std::printf("build: %s\n", BuildInfoSummary().c_str());
  std::printf("simd: %s kernels (available: %s)\n",
              simd::LevelName(simd::ActiveLevel()),
              simd::AvailableLevelsString().c_str());
  // Echo of how this process was launched, served verbatim by /varz.
  std::string flags_echo;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) flags_echo += ' ';
    flags_echo += argv[i];
  }

  // --- Data graph. ---
  StatusOr<Graph> graph = Status::InvalidArgument("one of --data/--sf required");
  if (flags->Has("data")) {
    graph = LoadGraphFile(flags->GetString("data", ""));
  } else {
    LdbcConfig config;
    FAST_FLAG_ASSIGN_OR_USAGE(config.scale_factor, flags->GetDouble("sf", 0.5));
    long long seed;
    FAST_FLAG_ASSIGN_OR_USAGE(seed, flags->GetInt("seed", 42));
    config.seed = static_cast<std::uint64_t>(seed);
    graph = GenerateLdbcGraph(config);
  }
  if (!graph.ok()) {
    std::fprintf(stderr, "data: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("data:  %s\n", graph->Summary().c_str());

  auto queries = LoadQueryMix(*flags);
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n", queries.status().ToString().c_str());
    return 2;
  }
  std::printf("mix:   %zu quer%s\n", queries->size(),
              queries->size() == 1 ? "y" : "ies");

  // --- Service configuration. ---
  ServiceOptions options;
  FAST_FLAG_ASSIGN_OR_USAGE(options.num_workers, flags->GetSizeT("workers", 0));
  FAST_FLAG_ASSIGN_OR_USAGE(options.queue_capacity, flags->GetSizeT("queue", 256));
  FAST_FLAG_ASSIGN_OR_USAGE(options.plan_cache_capacity,
                            flags->GetSizeT("cache-size", 64));
  FAST_FLAG_ASSIGN_OR_USAGE(options.plan_cache_byte_budget,
                            flags->GetSizeT("cache-bytes", 0));
  if (flags->Has("no-cache")) options.plan_cache_capacity = 0;
  double deadline_ms;
  FAST_FLAG_ASSIGN_OR_USAGE(deadline_ms, flags->GetDouble("deadline-ms", 0.0));
  options.default_deadline_seconds = deadline_ms / 1e3;
  FAST_FLAG_ASSIGN_OR_USAGE(options.run.cpu_share_delta,
                            flags->GetDouble("delta", 0.0));
  const std::string variant = flags->GetString("variant", "sep");
  if (variant == "dram") {
    options.run.variant = FastVariant::kDram;
  } else if (variant == "basic") {
    options.run.variant = FastVariant::kBasic;
  } else if (variant == "task") {
    options.run.variant = FastVariant::kTask;
  } else if (variant == "sep") {
    options.run.variant = FastVariant::kSep;
  } else {
    std::fprintf(stderr, "unknown --variant %s\n", variant.c_str());
    return 2;
  }
  std::size_t store;
  FAST_FLAG_ASSIGN_OR_USAGE(store, flags->GetSizeT("store", 0));

  // --- Shared device executor (src/device/): batch CST partitions from
  // concurrent queries — and tenants — into shared device rounds. ---
  options.device_mode = flags->Has("device");
  if (!options.device_mode &&
      (flags->Has("batch-window-us") || flags->Has("max-batch"))) {
    std::fprintf(stderr,
                 "--batch-window-us/--max-batch only apply with --device\n");
    return 2;
  }
  double batch_window_us;
  FAST_FLAG_ASSIGN_OR_USAGE(batch_window_us,
                            flags->GetDouble("batch-window-us", 200.0));
  std::size_t max_batch;
  FAST_FLAG_ASSIGN_OR_USAGE(max_batch, flags->GetSizeT("max-batch", 8));
  options.device.batch_window_seconds = batch_window_us * 1e-6;
  options.device.max_batch_items = std::max<std::size_t>(1, max_batch);

  // --- Observability (src/obs/): process-wide registry, span tracing, and
  // the export files written at exit. The registry outlives the service (and
  // the router in the multi-tenant branch). ---
  obs::MetricsRegistry registry;
  ObsConfig obs_cfg;
  obs_cfg.metrics_json = flags->GetString("metrics-json", "");
  obs_cfg.metrics_prom = flags->GetString("metrics-prom", "");
  obs_cfg.trace_log = flags->GetString("trace-log", "");
  FAST_FLAG_ASSIGN_OR_USAGE(obs_cfg.sample_ms,
                            flags->GetDouble("sample-ms", 100.0));
  obs_cfg.profile_out = flags->GetString("profile-out", "");
  obs_cfg.chrome_trace = flags->GetString("chrome-trace", "");
  double profile_hz;
  FAST_FLAG_ASSIGN_OR_USAGE(profile_hz, flags->GetDouble("profile-hz", 0.0));
  if (profile_hz > 0.0) {
    obs::Profiler::Default()->BindMetrics(&registry);
    obs::Profiler::Default()->Start(profile_hz);
    std::printf("profile: sampling at %.0f Hz\n", obs::Profiler::Default()->hz());
  }
  // The profiler reports into `registry` and its sampler reads thread slots
  // the service/router threads own: stop it before either is destroyed, on
  // every return path below.
  struct ProfilerStopper {
    ~ProfilerStopper() { obs::Profiler::Default()->Stop(); }
  } profiler_stopper;
  double slow_ms;
  FAST_FLAG_ASSIGN_OR_USAGE(slow_ms, flags->GetDouble("slow-ms", 0.0));
  options.metrics = &registry;
  options.tracing = !flags->Has("no-trace");
  options.slow_request_seconds = slow_ms / 1e3;

  // --- SLO engine + breach flight recorder (obs/slo.h). ---
  double slo_ms, slo_target;
  FAST_FLAG_ASSIGN_OR_USAGE(slo_ms, flags->GetDouble("slo-ms", 0.0));
  FAST_FLAG_ASSIGN_OR_USAGE(slo_target, flags->GetDouble("slo-target", 0.999));
  options.slo.latency_objective_seconds = slo_ms / 1e3;
  options.slo.target = slo_target;
  options.flight.dir = flags->GetString("flight-dir", "");
  if (!options.flight.dir.empty() && slo_ms <= 0.0) {
    std::fprintf(stderr, "--flight-dir needs --slo-ms (breaches trigger the "
                         "dumps)\n");
    return 2;
  }

  // --- Transport mode (--listen) excludes the in-process load/update loops:
  // remote clients drive the traffic, so the replay knobs have nothing to
  // configure. ---
  if (flags->Has("listen") &&
      (flags->Has("once") || flags->Has("update") || flags->Has("reload") ||
       flags->Has("swap-every-ms") || flags->Has("churn") ||
       flags->Has("clients"))) {
    std::fprintf(stderr,
                 "--listen serves remote clients: drop --once/--update/"
                 "--reload/--swap-every-ms/--churn/--clients\n");
    return 2;
  }
  if (!flags->Has("listen") &&
      (flags->Has("host") || flags->Has("port") || flags->Has("max-inflight"))) {
    std::fprintf(stderr,
                 "--host/--port/--max-inflight only apply with --listen\n");
    return 2;
  }

  // --- Multi-tenant replay branch. ---
  std::size_t num_tenants;
  FAST_FLAG_ASSIGN_OR_USAGE(num_tenants, flags->GetSizeT("tenants", 1));
  if (num_tenants > 1) {
    if (flags->Has("data") || flags->Has("once") || flags->Has("update") ||
        flags->Has("reload")) {
      std::fprintf(stderr, "--tenants requires --sf replay mode (no --data, "
                           "--once, --update, or --reload)\n");
      return 2;
    }
    // Tenant 0 serves the graph generated above; the rest get fresh graphs
    // from consecutive seeds so the tenants carry genuinely different data.
    std::vector<Graph> graphs;
    graphs.push_back(std::move(*graph));
    LdbcConfig config;
    FAST_FLAG_ASSIGN_OR_USAGE(config.scale_factor, flags->GetDouble("sf", 0.5));
    long long seed;
    FAST_FLAG_ASSIGN_OR_USAGE(seed, flags->GetInt("seed", 42));
    for (std::size_t i = 1; i < num_tenants; ++i) {
      config.seed = static_cast<std::uint64_t>(seed) + i;
      auto g = GenerateLdbcGraph(config);
      if (!g.ok()) {
        std::fprintf(stderr, "data: %s\n", g.status().ToString().c_str());
        return 1;
      }
      graphs.push_back(std::move(*g));
    }
    return RunMultiTenant(*flags, options, *queries, std::move(graphs), store,
                          obs_cfg, &registry, flags_echo);
  }
  if (flags->Has("zipf-s") || flags->Has("quota") || flags->Has("weights")) {
    std::fprintf(stderr, "--zipf-s/--quota/--weights only apply with "
                         "--tenants N (N > 1)\n");
    return 2;
  }

  MatchService svc(std::move(*graph), options);
  std::printf("serve: %zu workers, queue=%zu, cache=%zu entries%s%s\n",
              svc.num_workers(), options.queue_capacity,
              options.plan_cache_capacity,
              options.plan_cache_capacity == 0 ? " (disabled)" : "",
              options.device_mode ? ", shared device executor" : "");

  auto admin = StartAdminServer(*flags, &svc, &registry, flags_echo);
  if (!admin.ok()) {
    std::fprintf(stderr, "admin: %s\n", admin.status().ToString().c_str());
    return 1;
  }

  if (flags->Has("listen")) {
    return RunListen(&svc, *flags, obs_cfg, &registry,
                     [&svc] { return svc.recent_traces(); });
  }

  // --- Online-update inputs (shared by both modes). ---
  auto deltas = LoadDeltaFiles(flags->GetString("update", ""));
  if (!deltas.ok()) {
    std::fprintf(stderr, "--update: %s\n", deltas.status().ToString().c_str());
    return 2;
  }
  std::size_t churn;
  FAST_FLAG_ASSIGN_OR_USAGE(churn, flags->GetSizeT("churn", 16));

  // --- One-shot mode. ---
  if (flags->Has("once")) {
    if (flags->Has("swap-every-ms") || flags->Has("churn")) {
      std::fprintf(stderr, "--swap-every-ms/--churn only apply in replay mode "
                           "(drop --once, or use --update for one-shot swaps)\n");
      return 2;
    }
    auto run_pass = [&]() -> int {
      for (const QueryGraph& q : *queries) {
        RequestOptions ropts;
        ropts.store_limit = store;
        auto r = svc.SubmitAndWait(q, ropts);
        if (!r.ok()) {
          std::fprintf(stderr, "%s: %s\n", q.name().c_str(),
                       r.status().ToString().c_str());
          return 1;
        }
        std::printf("%-10s embeddings=%-12llu epoch=%llu latency=%.3fms %s\n",
                    q.name().c_str(),
                    static_cast<unsigned long long>(r->run.embeddings),
                    static_cast<unsigned long long>(r->graph_epoch),
                    r->total_seconds * 1e3, r->cache_hit ? "(cache hit)" : "");
        for (const auto& e : r->run.sample_embeddings) {
          std::printf("  match:");
          for (std::size_t u = 0; u < e.size(); ++u) {
            std::printf(" u%zu->v%u", u, e[u]);
          }
          std::printf("\n");
        }
      }
      return 0;
    };
    if (int rc = run_pass(); rc != 0) return rc;
    // Each update swaps in a new snapshot and re-runs the query list, so the
    // effect of the delta on the counts is visible epoch by epoch.
    for (std::size_t i = 0; i < deltas->size(); ++i) {
      auto epoch = svc.ApplyDelta((*deltas)[i]);
      if (!epoch.ok()) {
        std::fprintf(stderr, "update: %s\n", epoch.status().ToString().c_str());
        return 1;
      }
      std::printf("\nupdate %s -> epoch %llu, data: %s\n",
                  (*deltas)[i].Summary().c_str(),
                  static_cast<unsigned long long>(*epoch),
                  svc.snapshot().graph->Summary().c_str());
      if (int rc = run_pass(); rc != 0) return rc;
    }
    if (flags->Has("reload")) {
      auto replacement = LoadGraphFile(flags->GetString("reload", ""));
      if (!replacement.ok()) {
        std::fprintf(stderr, "--reload: %s\n",
                     replacement.status().ToString().c_str());
        return 1;
      }
      const std::uint64_t epoch = svc.SwapGraph(std::move(*replacement));
      std::printf("\nreload -> epoch %llu, data: %s\n",
                  static_cast<unsigned long long>(epoch),
                  svc.snapshot().graph->Summary().c_str());
      if (int rc = run_pass(); rc != 0) return rc;
    }
    const auto stats = svc.stats();
    std::printf("%s\n", stats.Summary().c_str());
    if (stats.device_mode) {
      std::printf("device: %s\n", stats.device.Summary().c_str());
    }
    return WriteObsOutputs(obs_cfg, registry, /*sampler=*/nullptr,
                           svc.recent_traces(), &svc);
  }

  // --- Fixed-duration replay. ---
  // All flags parse before any thread spawns: an early `return 2` with
  // joinable client threads would std::terminate.
  double duration;
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags->GetDouble("duration", 5.0));
  std::size_t clients;
  FAST_FLAG_ASSIGN_OR_USAGE(clients, flags->GetSizeT("clients", 4));
  clients = std::max<std::size_t>(clients, 1);
  double swap_every_ms;
  FAST_FLAG_ASSIGN_OR_USAGE(swap_every_ms, flags->GetDouble("swap-every-ms", 0.0));
  if (flags->Has("reload")) {
    std::fprintf(stderr, "--reload only applies in --once mode "
                         "(use --update/--swap-every-ms in replay mode)\n");
    return 2;
  }
  if (!deltas->empty() && swap_every_ms <= 0.0) {
    std::fprintf(stderr, "--update in replay mode needs --swap-every-ms "
                         "(or add --once to apply the deltas one-shot)\n");
    return 2;
  }
  // --churn only feeds the random-delta writer; reject it when that writer
  // won't run rather than silently measuring an unchurned replay.
  if (flags->Has("churn") && (swap_every_ms <= 0.0 || !deltas->empty())) {
    std::fprintf(stderr, "--churn needs --swap-every-ms and no --update files "
                         "(churn generates the random deltas)\n");
    return 2;
  }

  std::unique_ptr<obs::PeriodicSampler> sampler;
  if (!obs_cfg.metrics_json.empty()) {
    sampler = StartGaugeSampler(&registry, obs_cfg.sample_ms);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Rng rng(0xC11E57 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryGraph& q = (*queries)[rng.Uniform(queries->size())];
        RequestOptions ropts;
        ropts.store_limit = store;
        auto id = svc.Submit(q, ropts);
        if (!id.ok()) continue;  // queue full: admission control at work
        svc.Wait(*id);
      }
    });
  }
  // Optional writer: publish a new snapshot every --swap-every-ms, cycling
  // the --update delta files or applying random edge churn. A failed swap
  // fails the whole run — a writer that silently stopped would freeze the
  // snapshot while the replay keeps reporting success.
  std::thread writer;
  std::atomic<bool> writer_failed{false};
  if (swap_every_ms > 0.0) {
    writer = std::thread([&] {
      Rng rng(0xD317A);
      std::size_t next_delta = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Sliced sleep so a long interval doesn't delay shutdown.
        Timer interval;
        while (!stop.load(std::memory_order_relaxed) &&
               interval.ElapsedSeconds() * 1e3 < swap_every_ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (stop.load(std::memory_order_relaxed)) break;
        GraphDelta delta;
        if (!deltas->empty()) {
          delta = (*deltas)[next_delta++ % deltas->size()];
        } else {
          delta = RandomChurnDelta(*svc.snapshot().graph, churn, rng);
        }
        auto epoch = svc.ApplyDelta(delta);
        if (!epoch.ok()) {
          std::fprintf(stderr, "swap: %s\n", epoch.status().ToString().c_str());
          writer_failed.store(true);
          break;
        }
      }
    });
  }

  Timer wall;
  while (wall.ElapsedSeconds() < duration) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true);
  for (auto& t : client_threads) t.join();
  if (writer.joinable()) writer.join();
  if (sampler != nullptr) sampler->Stop();

  const auto stats = svc.stats();
  const double elapsed = wall.ElapsedSeconds();
  std::printf("\n--- %.1fs replay, %zu client thread%s ---\n", elapsed, clients,
              clients == 1 ? "" : "s");
  std::printf("throughput:  %.1f queries/sec\n",
              static_cast<double>(stats.completed) / elapsed);
  std::printf("latency:     p50=%.3fms p99=%.3fms mean=%.3fms max=%.3fms\n",
              stats.latency.P50() * 1e3, stats.latency.P99() * 1e3,
              stats.latency.mean_seconds() * 1e3, stats.latency.max_seconds() * 1e3);
  std::printf("requests:    submitted=%llu completed=%llu failed=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed));
  std::printf("rejected:    queue_full=%llu deadline=%llu\n",
              static_cast<unsigned long long>(stats.rejected_queue_full),
              static_cast<unsigned long long>(stats.rejected_deadline));
  std::printf("plan cache:  hit_rate=%.1f%% entries=%zu bytes=%.1fKiB "
              "evictions=%llu invalidations=%llu\n",
              stats.cache.HitRate() * 100.0, stats.cache.entries,
              static_cast<double>(stats.cache.bytes_in_use) / 1024.0,
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.cache.invalidations));
  std::printf("snapshots:   epoch=%llu swaps=%llu\n",
              static_cast<unsigned long long>(stats.epoch),
              static_cast<unsigned long long>(stats.graph_swaps));
  if (stats.device_mode) {
    std::printf("device:      %s\n", stats.device.Summary().c_str());
  }
  if (int rc = WriteObsOutputs(obs_cfg, registry, sampler.get(),
                               svc.recent_traces(), &svc);
      rc != 0) {
    return rc;
  }
  if (writer_failed.load()) {
    std::fprintf(stderr, "error: snapshot writer stopped early (see above)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
