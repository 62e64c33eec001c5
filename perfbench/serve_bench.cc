// serve_bench: the serving benchmark behind BENCHMARK.json.
//
//   serve_bench --workload hot_inline|partitioned_device|churn_miss
//               [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]
//
// One generator thread drives service::MatchService as a closed loop: it
// keeps a window of kWindow requests in flight through
// RequestOptions::on_complete and replays one fixed, seeded request list per
// pass, so every pass serves the same requests in the same order. A run
// builds its inputs from --seed, times the set-up, serves one discarded
// warm-up pass, then serves measured passes until --seconds have elapsed and
// reports the median over those passes. Every answer is checked against
// embedding counts from the independent enumerator in src/baseline/, and the
// values the simulator must reproduce bit for bit (per-request kernel
// counters, simulated kernel seconds, partition counts, plan-cache hits) are
// compared across all passes of the run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics instead: it reruns the passes and reads the service's own spans,
// runs passes with and without the observability plane, and replays each
// distinct (query, epoch) pair on one thread through the public layer
// functions, wrapping each call in a span of its own (written to
// --spans-out as JSON lines).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md describes the workloads and the metrics.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.h"
#include "bench/bench_serve_common.h"
#include "core/driver.h"
#include "core/kernel.h"
#include "cst/cst.h"
#include "cst/partition.h"
#include "cst/workload.h"
#include "fpga/pipeline_sim.h"
#include "graph/graph_delta.h"
#include "ldbc/ldbc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/matching_order.h"
#include "service/match_service.h"
#include "service/query_signature.h"
#include "util/rng.h"

namespace {

using namespace fast;
using Clock = std::chrono::steady_clock;
using service::MatchService;
using service::ServiceOptions;

// ---- Workloads. ----

struct Workload {
  const char* name;
  double scale_factor;      // LDBC-like dataset size
  std::vector<int> queries;  // LDBC query indices of the mix
  bool device_mode;         // shared DeviceExecutor instead of inline matching
  std::size_t workers;
  std::size_t bram_words;   // simulated BRAM; smaller = more partitions
  std::size_t perturb_edges;  // seeded edge churn applied to the dataset
  std::size_t pass_requests;  // requests per pass (a multiple of the mix)
  std::size_t churn_every;    // requests per epoch; 0 = no writes in a pass
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"hot_inline", 0.2, {0, 1, 2}, false, 3, 128 * 1024, 16, 3072, 0},
      {"partitioned_device", 1.0, {0, 1, 2, 5, 6, 8}, true, 2, 16 * 1024, 32, 96, 0},
      {"churn_miss", 0.5, {1, 5, 2}, false, 3, 128 * 1024, 32, 768, 16},
  };
  return kWorkloads;
}

// The dataset's generator seed is part of the workload, like a named
// dataset; --seed perturbs it (perturb_edges), orders the requests and draws
// every delta.
constexpr std::uint64_t kDatasetSeed = 42;
constexpr std::size_t kWindow = 8;          // requests in flight
constexpr std::size_t kChurnEdges = 16;     // edges per RandomChurnDelta
constexpr std::size_t kUpdatesPerPass = 8;  // ApplyDelta calls timed per pass
constexpr std::size_t kUpdateSamples = 64;  // ApplyDelta calls in the replay
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kLoggedRequests = 1024;  // served requests in the spans file
constexpr std::size_t kNone = ~std::size_t{0};

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Drops the peak resident set to the current one (after handing freed heap
// back to the kernel), so VmHWM counts only what happens from here on.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// Linear-interpolated quantile of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

FpgaConfig WorkloadFpga(const Workload& w) {
  FpgaConfig fpga = bench::ServeBenchFpgaConfig();
  fpga.bram_words = w.bram_words;
  return fpga;
}

// The serving defaults fast_serve ships with (tracing on, a registry
// attached); a null registry gives the bare service of obs.overhead_pct.
ServiceOptions ServingOptions(const Workload& w, bool device_mode,
                              std::size_t workers,
                              obs::MetricsRegistry* registry) {
  ServiceOptions o;
  o.num_workers = workers;
  o.run.fpga = WorkloadFpga(w);
  o.device_mode = device_mode;
  o.metrics = registry;
  o.tracing = registry != nullptr;
  return o;
}

// ---- Inputs: everything derived from the seed. ----

struct Inputs {
  Graph dataset;
  std::vector<QueryGraph> shapes;
  std::vector<std::size_t> requests;  // shape index of each request of a pass
  // deltas[b] turns epoch b-1 into epoch b (deltas[0] is unused); an epoch
  // is a block of churn_every requests. One entry without churn.
  std::vector<GraphDelta> deltas;
  // Per epoch: how many requests at its head build its plans, one per shape.
  std::vector<std::size_t> plan_heads;
  std::vector<std::vector<std::uint64_t>> reference;  // [epoch][shape]

  std::size_t EpochOf(const Workload& w, std::size_t request) const {
    return w.churn_every > 0 ? request / w.churn_every : 0;
  }
};

StatusOr<std::vector<std::uint64_t>> ReferenceCounts(
    const std::vector<QueryGraph>& shapes, const Graph& g) {
  const std::unique_ptr<BaselineMatcher> oracle = MakeBaseline(BaselineKind::kCfl);
  std::vector<std::uint64_t> counts;
  for (const QueryGraph& q : shapes) {
    FAST_ASSIGN_OR_RETURN(BaselineRunResult r, oracle->Run(q, g, BaselineOptions{}));
    counts.push_back(r.embeddings);
  }
  return counts;
}

StatusOr<Inputs> MakeInputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  LdbcConfig config;
  config.scale_factor = w.scale_factor;
  config.seed = kDatasetSeed;
  FAST_ASSIGN_OR_RETURN(Graph base, GenerateLdbcGraph(config));
  Rng perturb(SubSeed(seed, 1));
  FAST_ASSIGN_OR_RETURN(in.dataset,
                        ApplyDelta(base, RandomChurnDelta(base, w.perturb_edges, perturb)));

  for (int q : w.queries) {
    FAST_ASSIGN_OR_RETURN(QueryGraph shape, LdbcQuery(q));
    in.shapes.push_back(std::move(shape));
  }
  // Every block of |shapes| consecutive requests holds each shape once, in
  // a seeded order: the per-request work and how heavy the in-flight window
  // can get are the same from seed to seed; the sequence and the data move.
  Rng order(SubSeed(seed, 2));
  const std::size_t k = in.shapes.size();
  for (std::size_t block = 0; block < w.pass_requests / k; ++block) {
    const std::size_t first = in.requests.size();
    for (std::size_t s = 0; s < k; ++s) in.requests.push_back(s);
    for (std::size_t i = k; i > 1; --i) {
      std::swap(in.requests[first + i - 1], in.requests[first + order.Uniform(i)]);
    }
  }

  const std::size_t epochs =
      w.churn_every > 0 ? (w.pass_requests + w.churn_every - 1) / w.churn_every : 1;
  // With writes, each epoch starts with the first request of every shape in
  // it; the rest of the epoch keeps its order.
  for (std::size_t b = 0; b < epochs && w.churn_every > 0; ++b) {
    const auto first = in.requests.begin() + static_cast<std::ptrdiff_t>(b * w.churn_every);
    const auto last = in.requests.begin() + static_cast<std::ptrdiff_t>(
                          std::min((b + 1) * w.churn_every, in.requests.size()));
    std::vector<char> seen(in.shapes.size(), 0);
    std::vector<std::size_t> head, tail;
    for (auto it = first; it != last; ++it) {
      (seen[*it] == 0 ? head : tail).push_back(*it);
      seen[*it] = 1;
    }
    in.plan_heads.push_back(head.size());
    std::copy(tail.begin(), tail.end(), std::copy(head.begin(), head.end(), first));
  }
  in.deltas.resize(epochs);
  Rng churn(SubSeed(seed, 3));
  Graph g = in.dataset;
  for (std::size_t b = 0; b < epochs; ++b) {
    if (b > 0) {
      in.deltas[b] = RandomChurnDelta(g, kChurnEdges, churn);
      FAST_ASSIGN_OR_RETURN(g, ApplyDelta(g, in.deltas[b]));
    }
    FAST_ASSIGN_OR_RETURN(std::vector<std::uint64_t> counts,
                          ReferenceCounts(in.shapes, g));
    in.reference.push_back(std::move(counts));
  }
  return in;
}

// ---- One pass of the closed loop. ----

// The values a pass must reproduce exactly.
struct Outcome {
  std::uint64_t embeddings = 0;
  KernelCounters counters;
  double kernel_seconds = 0.0;  // simulated
  std::size_t partitions = 0;
  bool cache_hit = false;
  std::uint64_t epoch_offset = 0;  // epoch relative to the pass's first

  bool operator==(const Outcome& o) const {
    const KernelCounters& a = counters;
    const KernelCounters& b = o.counters;
    return embeddings == o.embeddings && a.partial_results == b.partial_results &&
           a.edge_tasks == b.edge_tasks && a.visited_tasks == b.visited_tasks &&
           a.rounds == b.rounds && a.results == b.results &&
           a.max_buffer_entries == b.max_buffer_entries &&
           kernel_seconds == o.kernel_seconds && partitions == o.partitions &&
           cache_hit == o.cache_hit && epoch_offset == o.epoch_offset;
  }
};

struct Record {
  Status status = Status::Internal("not completed");
  Outcome out;
  double latency_seconds = 0.0;  // Submit -> completion callback
  Clock::time_point submitted;
  std::shared_ptr<const obs::CompletedTrace> trace;
};

struct Pass {
  std::vector<Record> records;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> update_seconds;
  Status update_status = Status::OK();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t cache_bytes = 0;
  std::uint64_t device_rounds = 0;
  std::uint64_t device_items = 0;
  std::uint64_t device_round_queries = 0;
  double device_busy_seconds = 0.0;  // summed host time of the pass's rounds
  std::size_t ok = 0;
};

std::uint64_t LastRound(const MatchService& svc) {
  const std::vector<obs::TimelineRound> rounds = svc.device_rounds();
  return rounds.empty() ? 0 : rounds.back().round;
}

Pass RunPass(MatchService& svc, const Workload& w, const Inputs& in,
             bool keep_traces) {
  Pass pass;
  const std::size_t n = in.requests.size();
  pass.records.resize(n);
  const bool churn = w.churn_every > 0;
  // Every pass of a churn workload starts from the same data.
  if (churn) svc.SwapGraph(Graph(in.dataset));
  const std::uint64_t base_epoch = svc.epoch();
  const service::ServiceStats before = svc.stats();
  const std::uint64_t round_floor = LastRound(svc);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  const auto drain = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inflight == 0; });
  };

  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t shape = in.requests[i];
    // With writes, the window drains before each ApplyDelta and again once
    // the requests that build the epoch's plans are done, so every request's
    // epoch, and whether it hits the plan cache, is fixed by its position in
    // the list.
    if (churn && i % w.churn_every == in.plan_heads[i / w.churn_every]) drain();
    if (churn && i % w.churn_every == 0) {
      if (i > 0) {
        drain();
        const Clock::time_point t = Clock::now();
        StatusOr<std::uint64_t> applied = svc.ApplyDelta(in.deltas[i / w.churn_every]);
        pass.update_seconds.push_back(Seconds(Clock::now() - t));
        if (!applied.ok() && pass.update_status.ok()) {
          pass.update_status = applied.status();
        }
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < kWindow; });
      ++inflight;
    }
    Record* rec = &pass.records[i];
    service::RequestOptions opts;
    opts.on_complete = [&, rec, base_epoch, keep_traces](
                           std::uint64_t, const service::RequestResult& r) {
      rec->latency_seconds = Seconds(Clock::now() - rec->submitted);
      rec->status = r.status;
      rec->out.embeddings = r.run.embeddings;
      rec->out.counters = r.run.counters;
      rec->out.kernel_seconds = r.run.kernel_seconds;
      rec->out.partitions = r.run.partition_stats.num_partitions;
      rec->out.cache_hit = r.cache_hit;
      rec->out.epoch_offset = r.graph_epoch - base_epoch;
      if (keep_traces) rec->trace = r.trace;
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
      cv.notify_all();
    };
    rec->submitted = Clock::now();
    StatusOr<MatchService::RequestId> id = svc.Submit(in.shapes[shape], std::move(opts));
    if (!id.ok()) {
      rec->status = id.status();
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
    }
  }
  drain();
  pass.wall_seconds = Seconds(Clock::now() - start);
  pass.cpu_seconds = ProcessCpuSeconds() - cpu_start;

  const service::ServiceStats after = svc.stats();
  pass.hits = after.cache.hits - before.cache.hits;
  pass.misses = after.cache.misses - before.cache.misses;
  pass.cache_bytes = after.cache.bytes_in_use;
  pass.device_rounds = after.device.rounds - before.device.rounds;
  pass.device_items = after.device.items - before.device.items;
  pass.device_round_queries =
      after.device.sum_round_queries - before.device.sum_round_queries;
  for (const obs::TimelineRound& r : svc.device_rounds()) {
    if (r.round > round_floor) pass.device_busy_seconds += r.duration_seconds;
  }
  for (const Record& r : pass.records) pass.ok += r.status.ok() ? 1 : 0;
  return pass;
}

// Counts wrong or failed requests of a pass against the oracle.
std::size_t CheckPass(const Pass& pass, const Workload& w, const Inputs& in,
                      std::string* error) {
  std::size_t failed = 0;
  auto fail = [&](const std::string& why) {
    if (error->empty()) *error = why;
    ++failed;
  };
  if (!pass.update_status.ok()) fail("ApplyDelta: " + pass.update_status.ToString());
  for (std::size_t i = 0; i < pass.records.size(); ++i) {
    const Record& r = pass.records[i];
    const std::size_t epoch = in.EpochOf(w, i);
    const std::uint64_t want = in.reference[epoch][in.requests[i]];
    if (!r.status.ok()) {
      fail("request " + std::to_string(i) + ": " + r.status.ToString());
    } else if (r.out.embeddings != want) {
      fail("request " + std::to_string(i) + ": " + std::to_string(r.out.embeddings) +
           " embeddings, reference " + std::to_string(want));
    } else if (r.out.epoch_offset != epoch) {
      fail("request " + std::to_string(i) + " ran on the wrong epoch");
    }
  }
  return failed;
}

// True when `b` reproduced every exact value of `a`.
bool SameOutcomes(const Pass& a, const Pass& b) {
  if (a.hits != b.hits || a.misses != b.misses) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (!(a.records[i].out == b.records[i].out)) return false;
  }
  return true;
}

double SimKernelMsPerQuery(const Pass& pass) {
  double sum = 0.0;  // summed in request order, so it repeats bit for bit
  for (const Record& r : pass.records) {
    if (r.status.ok()) sum += r.out.kernel_seconds;
  }
  return pass.ok > 0 ? sum * 1e3 / static_cast<double>(pass.ok) : 0.0;
}

std::vector<double> Latencies(const Pass& pass) {
  std::vector<double> v;
  for (const Record& r : pass.records) {
    if (r.status.ok()) v.push_back(r.latency_seconds);
  }
  return v;
}

double Qps(const Pass& p) {
  return p.wall_seconds > 0.0 ? static_cast<double>(p.ok) / p.wall_seconds : 0.0;
}

// ---- Run-level bookkeeping. ----

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::string error;

  void Fail(const std::string& why, std::uint64_t n = 1) {
    if (error.empty()) error = why;
    failed += n;
  }
  // Checks a served pass and folds it into the tally; `reference` is the
  // first pass of the same service configuration.
  void Add(const Pass& pass, const Workload& w, const Inputs& in,
           const Pass* reference) {
    attempted += pass.records.size();
    std::string why;
    const std::size_t bad = CheckPass(pass, w, in, &why);
    if (bad > 0) Fail(why, bad);
    if (reference != nullptr && !SameOutcomes(*reference, pass)) {
      deterministic = false;
      if (error.empty()) error = "a pass did not reproduce the exact values of the first";
    }
  }
};

// Serves one request of every shape, one at a time, so every plan is cached
// for the published epoch (which must hold the dataset).
void WarmPlans(MatchService& svc, const Workload& w, const Inputs& in, Tally* tally) {
  for (std::size_t s = 0; s < in.shapes.size(); ++s) {
    StatusOr<service::RequestResult> r = svc.SubmitAndWait(in.shapes[s]);
    ++tally->attempted;
    if (!r.ok()) {
      tally->Fail("warm-up: " + r.status().ToString());
    } else if (r->run.embeddings != in.reference[0][s]) {
      tally->Fail("warm-up: wrong embedding count for q" + std::to_string(w.queries[s]));
    }
  }
}

// Set-up: constructs the service and caches every plan. Returns the service
// and the elapsed time; copying the dataset is input preparation, untimed.
std::unique_ptr<MatchService> SetUp(const Workload& w, const Inputs& in,
                                    const ServiceOptions& options, Tally* tally,
                                    double* seconds) {
  Graph copy = in.dataset;
  const Clock::time_point start = Clock::now();
  auto svc = std::make_unique<MatchService>(std::move(copy), options);
  WarmPlans(*svc, w, in, tally);
  *seconds = Seconds(Clock::now() - start);
  return svc;
}

// ApplyDelta latency with the window drained, for workloads whose passes do
// not write: times kUpdatesPerPass seeded deltas drawn from the live
// snapshot, then republishes the dataset and re-caches every plan, untimed.
void MeasureUpdates(MatchService& svc, const Workload& w, const Inputs& in,
                    Rng* rng, Tally* tally, std::vector<double>* ms) {
  for (std::size_t k = 0; k < kUpdatesPerPass; ++k) {
    const GraphDelta delta = RandomChurnDelta(*svc.snapshot().graph, kChurnEdges, *rng);
    const Clock::time_point t = Clock::now();
    StatusOr<std::uint64_t> applied = svc.ApplyDelta(delta);
    ms->push_back(Seconds(Clock::now() - t) * 1e3);
    if (!applied.ok()) tally->Fail("ApplyDelta: " + applied.status().ToString());
  }
  svc.SwapGraph(Graph(in.dataset));
  WarmPlans(svc, w, in, tally);
}

// ---- Output. ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 && tally.deterministic ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- End-to-end run (--trace 0). ----

int RunEndToEnd(const Workload& w, const Inputs& in, std::uint64_t seed,
                double run_seconds) {
  Tally tally;
  obs::MetricsRegistry registry;
  const ServiceOptions options =
      ServingOptions(w, w.device_mode, w.workers, &registry);
  std::vector<double> setup_s, update_ms;
  Rng update_rng(SubSeed(seed, 4));
  double seconds = 0.0;
  std::unique_ptr<MatchService> svc = SetUp(w, in, options, &tally, &seconds);
  setup_s.push_back(seconds);

  // Between passes, one more set-up and (without churn) a batch of updates
  // are timed, so those samples span the run like the passes do: taken in
  // one block after the passes instead, they spread about twice as
  // much from run to run. The peak RSS is then reset, so peak_rss_mb counts
  // the measured passes only, not the inputs or this extra work.
  const auto between_passes = [&] {
    SetUp(w, in, options, &tally, &seconds);  // the extra service is dropped here
    setup_s.push_back(seconds);
    if (w.churn_every == 0) MeasureUpdates(*svc, w, in, &update_rng, &tally, &update_ms);
    if (!ResetPeakRss()) tally.Fail("cannot reset the peak RSS through /proc/self/clear_refs");
  };

  between_passes();
  const Pass warmup = RunPass(*svc, w, in, /*keep_traces=*/false);
  tally.Add(warmup, w, in, nullptr);

  std::vector<double> qps, p50, p90, p99, cpu, sim, rss;
  const Clock::time_point start = Clock::now();
  while (qps.size() < kMinPasses || Seconds(Clock::now() - start) < run_seconds) {
    between_passes();
    const Pass p = RunPass(*svc, w, in, /*keep_traces=*/false);
    rss.push_back(PeakRssMiB());
    tally.Add(p, w, in, &warmup);
    const std::vector<double> lat = Latencies(p);
    qps.push_back(Qps(p));
    p50.push_back(Quantile(lat, 0.5) * 1e3);
    p90.push_back(Quantile(lat, 0.9) * 1e3);
    p99.push_back(Quantile(lat, 0.99) * 1e3);
    cpu.push_back(p.ok > 0 ? p.cpu_seconds * 1e3 / static_cast<double>(p.ok) : 0.0);
    sim.push_back(SimKernelMsPerQuery(p));
    for (double u : p.update_seconds) update_ms.push_back(u * 1e3);
    std::fprintf(stderr, "pass %zu: %.1f qps, %.4f cpu ms/query\n", qps.size(),
                 qps.back(), cpu.back());
  }
  svc.reset();

  std::printf("%s: seed %llu, %zu measured passes of %zu requests, window %zu, "
              "%zu set-ups, %zu updates\n",
              w.name, static_cast<unsigned long long>(seed), qps.size(),
              in.requests.size(), kWindow, setup_s.size(), update_ms.size());
  std::printf("  latency_p99_ms (not a metric)  %14.6g ms\n", Median(p99));
  if (!tally.error.empty()) std::printf("  error: %s\n", tally.error.c_str());
  PrintResult(tally, {
                         {"qps", Median(qps), "1/s"},
                         {"latency_p50_ms", Median(p50), "ms"},
                         {"latency_p90_ms", Median(p90), "ms"},
                         {"cpu_ms_per_query", Median(cpu), "ms"},
                         {"sim_kernel_ms_per_query", Median(sim), "ms"},
                         {"setup_s", Median(setup_s), "s"},
                         {"peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MiB"},
                         {"update_p50_ms", Median(update_ms), "ms"},
                     });
  return 0;
}

// ---- Traced run (--trace 1). ----

// The benchmark's own spans around calls into the layers, kept in memory
// and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::size_t Open(const std::string& name, std::size_t parent,
                   const std::string& request) {
    spans_.push_back({name, Now(), 0.0, parent, request, false});
    return spans_.size() - 1;
  }
  // Closes the span and returns its duration in milliseconds.
  double Close(std::size_t id) {
    spans_[id].end_us = Now();
    return (spans_[id].end_us - spans_[id].start_us) * 1e-3;
  }
  std::size_t Add(const std::string& name, double start_us, double end_us,
                  std::size_t parent, const std::string& request, bool simulated) {
    spans_.push_back({name, start_us, end_us, parent, request, simulated});
    return spans_.size() - 1;
  }
  double Offset(Clock::time_point t) const { return Seconds(t - origin_) * 1e6; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Entry& e = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %s, \"name\": \"%s\", \"request\": "
                   "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f%s}\n",
                   i, e.parent == kNone ? "null" : std::to_string(e.parent).c_str(),
                   e.name.c_str(), e.request.c_str(), e.start_us, e.end_us,
                   e.simulated ? ", \"simulated\": true" : "");
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Entry {
    std::string name;
    double start_us;
    double end_us;
    std::size_t parent;
    std::string request;
    bool simulated;
  };
  double Now() const { return Offset(Clock::now()); }

  Clock::time_point origin_;
  std::vector<Entry> spans_;
};

// Layer costs of one (query, epoch) pair, replayed on one thread.
struct LayerSample {
  double order_ms = 0, build_ms = 0, partition_ms = 0, estimate_ms = 0;
  double kernel_ms = 0, pipeline_ms = 0;
  double stall_cycles = 0;
  KernelCounters counters;
  std::uint64_t embeddings = 0;
  std::size_t partitions = 0;
  std::size_t cst_words = 0;
  std::size_t partition_words = 0;
};

StatusOr<LayerSample> ReplayLayers(const Workload& w, const QueryGraph& shape,
                                   const Graph& g, const std::string& request,
                                   SpanLog* log) {
  const FpgaConfig fpga = WorkloadFpga(w);
  const FastRunOptions defaults;
  LayerSample s;
  const std::size_t root = log->Open("replay", kNone, request);

  std::size_t span = log->Open("query.canonicalize", root, request);
  FAST_ASSIGN_OR_RETURN(service::CanonicalQuery canonical,
                        service::CanonicalizeQuery(shape));
  log->Close(span);
  const QueryGraph& q = canonical.query;

  span = log->Open("query.order", root, request);
  FAST_ASSIGN_OR_RETURN(MatchingOrder order,
                        ComputeMatchingOrder(q, g, defaults.order_policy));
  s.order_ms = log->Close(span);

  span = log->Open("cst.build", root, request);
  FAST_ASSIGN_OR_RETURN(Cst cst, BuildCst(q, g, order.root, defaults.cst_build));
  s.build_ms = log->Close(span);
  s.cst_words = cst.SizeWords();

  PartitionStats stats;
  span = log->Open("cst.partition", root, request);
  FAST_ASSIGN_OR_RETURN(
      std::vector<Cst> parts,
      PartitionCstToVector(cst, order,
                           DerivePartitionConfig(fpga, q.NumVertices(), defaults.partition),
                           &stats));
  s.partition_ms = log->Close(span);
  s.partitions = parts.size();
  s.partition_words = stats.total_size_words;

  std::vector<RoundWork> rounds;
  for (const Cst& part : parts) {
    span = log->Open("cst.estimate", root, request);
    (void)EstimateWorkload(part);
    s.estimate_ms += log->Close(span);

    rounds.clear();
    ResultCollector collector;
    span = log->Open("core.kernel", root, request);
    FAST_ASSIGN_OR_RETURN(KernelRunResult run,
                          RunKernel(part, order, fpga, &collector, &rounds));
    s.kernel_ms += log->Close(span);
    s.counters += run.counters;
    s.embeddings += run.embeddings;

    span = log->Open("fpga.pipeline_sim", root, request);
    FAST_ASSIGN_OR_RETURN(PipelineSimResult sim,
                          SimulatePipeline(fpga, defaults.variant, rounds));
    s.pipeline_ms += log->Close(span);
    s.stall_cycles += sim.stall_cycles;
  }
  log->Close(root);
  return s;
}

// Copies the service's own spans of the first kLoggedRequests requests of a
// served pass into the span log.
void LogServedPass(const Pass& pass, SpanLog* log) {
  for (std::size_t i = 0; i < std::min(pass.records.size(), kLoggedRequests); ++i) {
    const Record& r = pass.records[i];
    if (r.trace == nullptr) continue;
    const std::string request = "serve-" + std::to_string(i);
    const double start = log->Offset(r.submitted);
    const std::size_t root =
        log->Add("request", start, start + r.latency_seconds * 1e6, kNone, request, false);
    for (const obs::TraceSpan& s : r.trace->spans) {
      const double begin = start + s.start_seconds * 1e6;
      log->Add(obs::SpanName(s.span), begin, begin + s.duration_seconds * 1e6, root,
               request, s.simulated);
    }
  }
}

// Mean duration in ms of one service span over the OK requests of `passes`
// that satisfy `pick`.
template <typename Pick>
double MeanSpanMs(const std::vector<Pass>& passes, obs::Span span, Pick pick) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    for (const Record& r : p.records) {
      if (r.status.ok() && r.trace != nullptr && pick(r)) {
        v.push_back(r.trace->SpanSeconds(span) * 1e3);
      }
    }
  }
  return Mean(v);
}

double MeanSpanMs(const std::vector<Pass>& passes, obs::Span span) {
  return MeanSpanMs(passes, span, [](const Record&) { return true; });
}

// The device layer's figures over served passes.
struct DeviceFigures {
  double wait_ms = 0, busy_share = 0, items_per_round = 0, queries_per_round = 0;
  double round_ms_per_query = 0;  // host time in device rounds per request
};

DeviceFigures DeviceLayer(const std::vector<Pass>& passes) {
  DeviceFigures d;
  double busy = 0, wall = 0;
  std::uint64_t rounds = 0, items = 0, round_queries = 0, ok = 0;
  for (const Pass& p : passes) {
    busy += p.device_busy_seconds;
    wall += p.wall_seconds;
    rounds += p.device_rounds;
    items += p.device_items;
    round_queries += p.device_round_queries;
    ok += p.ok;
  }
  d.wait_ms = MeanSpanMs(passes, obs::Span::kDeviceWait);
  d.busy_share = wall > 0 ? busy / wall : 0.0;
  d.items_per_round = rounds > 0 ? static_cast<double>(items) / static_cast<double>(rounds) : 0.0;
  d.queries_per_round =
      rounds > 0 ? static_cast<double>(round_queries) / static_cast<double>(rounds) : 0.0;
  d.round_ms_per_query = ok > 0 ? busy * 1e3 / static_cast<double>(ok) : 0.0;
  return d;
}

int RunTraced(const Workload& w, const Inputs& in, std::uint64_t seed,
              double run_seconds, const std::string& spans_out) {
  Tally tally;
  SpanLog log(Clock::now());
  double unused = 0.0;

  // Served passes, alternating between the serving defaults and the bare
  // service (no tracing, no registry): the qps gap is obs.overhead_pct.
  obs::MetricsRegistry registry;
  std::unique_ptr<MatchService> svc = SetUp(
      w, in, ServingOptions(w, w.device_mode, w.workers, &registry), &tally, &unused);
  std::unique_ptr<MatchService> bare = SetUp(
      w, in, ServingOptions(w, w.device_mode, w.workers, nullptr), &tally, &unused);
  const Pass warmup = RunPass(*svc, w, in, /*keep_traces=*/false);
  tally.Add(warmup, w, in, nullptr);
  tally.Add(RunPass(*bare, w, in, false), w, in, &warmup);
  std::vector<Pass> traced;
  std::vector<double> qps_default, qps_bare;
  const Clock::time_point start = Clock::now();
  while (traced.size() < 2 || Seconds(Clock::now() - start) < 0.6 * run_seconds) {
    traced.push_back(RunPass(*svc, w, in, /*keep_traces=*/true));
    tally.Add(traced.back(), w, in, &warmup);
    qps_default.push_back(Qps(traced.back()));
    const Pass p = RunPass(*bare, w, in, false);
    tally.Add(p, w, in, &warmup);
    qps_bare.push_back(Qps(p));
  }
  bare.reset();
  svc.reset();
  LogServedPass(traced.front(), &log);

  // The device layer: the workload's own passes in device mode. A traced run
  // must print every per-layer metric, so an inline workload serves its list
  // on a device-mode service (2 workers + the device thread) for these.
  DeviceFigures device;
  if (w.device_mode) {
    device = DeviceLayer(traced);
  } else {
    obs::MetricsRegistry device_registry;
    std::unique_ptr<MatchService> dsvc = SetUp(
        w, in, ServingOptions(w, true, 2, &device_registry), &tally, &unused);
    const Pass dwarm = RunPass(*dsvc, w, in, false);
    tally.Add(dwarm, w, in, nullptr);
    std::vector<Pass> dpasses;
    dpasses.push_back(RunPass(*dsvc, w, in, true));
    tally.Add(dpasses.back(), w, in, &dwarm);
    device = DeviceLayer(dpasses);
  }

  // One-thread replay of each distinct (query, epoch) pair through the layer
  // functions; per-request figures weight each pair by its requests.
  const std::size_t epochs = in.reference.size();
  std::vector<std::vector<std::optional<LayerSample>>> samples(
      epochs, std::vector<std::optional<LayerSample>>(in.shapes.size()));
  std::vector<double> apply_ms;
  Graph g = in.dataset;
  Rng update_rng(SubSeed(seed, 4));
  for (std::size_t b = 0; b < epochs; ++b) {
    if (b > 0) {
      const std::size_t span = log.Open("graph.apply_delta", kNone, "epoch-" + std::to_string(b));
      StatusOr<Graph> next = ApplyDelta(g, in.deltas[b]);
      apply_ms.push_back(log.Close(span));
      if (!next.ok()) {
        tally.Fail("ApplyDelta: " + next.status().ToString());
        break;
      }
      g = std::move(*next);
    }
    for (std::size_t i = b * (w.churn_every > 0 ? w.churn_every : 0);
         i < in.requests.size() && in.EpochOf(w, i) == b; ++i) {
      const std::size_t s = in.requests[i];
      if (samples[b][s].has_value()) continue;
      const std::string request = "replay-" + std::to_string(b) + "-q" +
                                  std::to_string(w.queries[s]);
      StatusOr<LayerSample> sample = ReplayLayers(w, in.shapes[s], g, request, &log);
      ++tally.attempted;
      if (!sample.ok()) {
        tally.Fail(request + ": " + sample.status().ToString());
        continue;
      }
      if (sample->embeddings != in.reference[b][s]) {
        tally.Fail(request + ": embedding count differs from the reference");
      }
      samples[b][s] = std::move(*sample);
    }
  }
  if (w.churn_every == 0) {
    // Workloads without writes time the same call on seeded deltas.
    for (std::size_t k = 0; k < kUpdateSamples; ++k) {
      const GraphDelta delta = RandomChurnDelta(g, kChurnEdges, update_rng);
      const std::size_t span = log.Open("graph.apply_delta", kNone, "update-" + std::to_string(k));
      StatusOr<Graph> next = ApplyDelta(g, delta);
      apply_ms.push_back(log.Close(span));
      if (!next.ok()) {
        tally.Fail("ApplyDelta: " + next.status().ToString());
        break;
      }
      g = std::move(*next);
    }
  }

  // The served requests must carry the replay's exact counters.
  LayerSample total;
  double total_stall = 0.0;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const std::optional<LayerSample>& s = samples[in.EpochOf(w, i)][in.requests[i]];
    if (!s.has_value()) continue;
    const Outcome& served = warmup.records[i].out;
    if (!(served.counters.partial_results == s->counters.partial_results &&
          served.counters.edge_tasks == s->counters.edge_tasks &&
          served.counters.rounds == s->counters.rounds &&
          served.counters.results == s->counters.results &&
          served.partitions == s->partitions)) {
      tally.deterministic = false;
      if (tally.error.empty()) tally.error = "served counters differ from the layer replay";
    }
    ++replayed;
    total.order_ms += s->order_ms;
    total.build_ms += s->build_ms;
    total.partition_ms += s->partition_ms;
    total.estimate_ms += s->estimate_ms;
    total.kernel_ms += s->kernel_ms;
    total.pipeline_ms += s->pipeline_ms;
    total_stall += s->stall_cycles;
    total.counters += s->counters;
    total.partitions += s->partitions;
    total.cst_words += s->cst_words;
    total.partition_words += s->partition_words;
  }
  const double per = replayed > 0 ? 1.0 / static_cast<double>(replayed) : 0.0;

  std::uint64_t hits = 0, lookups = 0;
  for (const Pass& p : traced) {
    hits += p.hits;
    lookups += p.hits + p.misses;
  }
  const double match_ms =
      w.device_mode ? device.round_ms_per_query : MeanSpanMs(traced, obs::Span::kMatch);
  const double qd = Median(qps_default), qb = Median(qps_bare);

  if (!spans_out.empty() && !log.Write(spans_out)) {
    tally.Fail("cannot write " + spans_out);
  }
  std::printf("%s: seed %llu, traced run, %zu traced passes, %zu replayed requests, "
              "spans in %s\n",
              w.name, static_cast<unsigned long long>(seed), traced.size(), replayed,
              spans_out.empty() ? "(not written)" : spans_out.c_str());
  if (!tally.error.empty()) std::printf("  error: %s\n", tally.error.c_str());
  const auto& c = total.counters;
  PrintResult(
      tally,
      {
          {"service.admit_ms", MeanSpanMs(traced, obs::Span::kAdmit), "ms"},
          {"service.queue_ms", MeanSpanMs(traced, obs::Span::kQueue), "ms"},
          {"service.plan_lookup_ms", MeanSpanMs(traced, obs::Span::kPlanLookup), "ms"},
          {"service.remap_ms", MeanSpanMs(traced, obs::Span::kRemap), "ms"},
          {"service.plan_hit_ratio",
           lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
           "ratio"},
          {"service.plan_cache_bytes", static_cast<double>(traced.back().cache_bytes),
           "bytes"},
          {"cst.decode_ms",
           MeanSpanMs(traced, obs::Span::kCstBuild,
                      [](const Record& r) { return r.out.cache_hit; }),
           "ms"},
          {"cst.build_ms", total.build_ms * per, "ms"},
          {"query.order_ms", total.order_ms * per, "ms"},
          {"cst.partition_ms", total.partition_ms * per, "ms"},
          {"cst.estimate_ms", total.estimate_ms * per, "ms"},
          {"cst.partitions_per_query", static_cast<double>(total.partitions) * per, "count"},
          {"cst.partition_words_ratio",
           total.cst_words > 0 ? static_cast<double>(total.partition_words) /
                                     static_cast<double>(total.cst_words)
                               : 0.0,
           "ratio"},
          {"core.match_ms", match_ms, "ms"},
          {"core.kernel_ms", total.kernel_ms * per, "ms"},
          {"core.partials_per_query", static_cast<double>(c.partial_results) * per, "count"},
          {"core.edge_tasks_per_query", static_cast<double>(c.edge_tasks) * per, "count"},
          {"core.rounds_per_query", static_cast<double>(c.rounds) * per, "count"},
          {"core.yield",
           c.partial_results > 0 ? static_cast<double>(c.results) /
                                       static_cast<double>(c.partial_results)
                                 : 0.0,
           "ratio"},
          {"fpga.pipeline_sim_ms", total.pipeline_ms * per, "ms"},
          {"fpga.stall_cycles_per_query", total_stall * per, "count"},
          {"device.wait_ms", device.wait_ms, "ms"},
          {"device.busy_share", device.busy_share, "ratio"},
          {"device.items_per_round", device.items_per_round, "count"},
          {"device.queries_per_round", device.queries_per_round, "count"},
          {"graph.apply_delta_ms", Median(apply_ms), "ms"},
          {"obs.overhead_pct", qb > 0 ? (qb - qd) / qb * 100.0 : 0.0, "%"},
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "serve_bench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      std::fprintf(stderr, "serve_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload hot_inline|partitioned_device|"
                 "churn_miss [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans-out FILE]\n");
    return 2;
  }

  StatusOr<Inputs> inputs = MakeInputs(*workload, seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "serve_bench: inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  return trace == 0 ? RunEndToEnd(*workload, *inputs, seed, seconds)
                    : RunTraced(*workload, *inputs, seed, seconds, spans_out);
}
