#ifndef FAST_OBS_ACCOUNTING_H_
#define FAST_OBS_ACCOUNTING_H_

// Per-tenant resource accounting: "which tenant is burning the device right
// now?" answered with numbers instead of guesses.
//
// Every request carries a cost vector assembled by the serving layer as the
// request finishes:
//   - cpu_ns:           worker thread-CPU time around dispatch + execution
//                       (CLOCK_THREAD_CPUTIME_ID — a worker blocked on the
//                       shared device accrues no CPU here);
//   - device_kernel_ns: the request's simulated kernel occupancy on the card
//                       (FastRunResult::kernel_seconds, amortized across a
//                       shared round in device mode);
//   - dma_bytes:        simulated bytes this request pushed across PCIe
//                       (dedup-aware in device mode: a query whose image was
//                       deduplicated against a round-mate is charged 0);
//   - queue_wait_ns:    submit -> dispatch;
//   - plan_cache_bytes: partition bytes of the compiled plan this request
//                       *inserted* into the plan cache (0 on a hit).
//
// ResourceAccounts aggregates those vectors per tenant id ("__default" for
// the single-service mode where requests have no tenant) and mirrors the
// process-wide totals into the metrics registry as fast_account_* counters,
// charged in the same call — so the per-tenant table always sums to the
// global counters (modulo requests in flight between the two scrapes).
// Charge() is called once per finished request from RequestObs::OnFinished;
// snapshots feed the admin plane's /tenants endpoint, the flight recorder,
// and the accounts section of exported metrics JSON.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/json_writer.h"

namespace fast::obs {

// Tenant id requests without a tenant are charged to.
inline constexpr const char* kDefaultAccount = "__default";

struct RequestCost {
  std::uint64_t cpu_ns = 0;
  std::uint64_t device_kernel_ns = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t plan_cache_bytes = 0;
};

// One tenant's accumulated account (also the snapshot row).
struct AccountSnapshot {
  std::string tenant;
  std::uint64_t requests = 0;  // every finished request, any outcome
  std::uint64_t errors = 0;    // finished not-OK
  std::uint64_t cpu_ns = 0;
  std::uint64_t device_kernel_ns = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t plan_cache_bytes = 0;
};

class ResourceAccounts {
 public:
  // `metrics` receives the global fast_account_* roll-up counters; nullptr
  // keeps per-tenant aggregation only. Non-owning.
  explicit ResourceAccounts(MetricsRegistry* metrics = nullptr);

  ResourceAccounts(const ResourceAccounts&) = delete;
  ResourceAccounts& operator=(const ResourceAccounts&) = delete;

  // Charges one finished request to `tenant` (empty -> "__default") and
  // bumps the global registry counters. Thread-safe.
  void Charge(const std::string& tenant, const RequestCost& cost, bool ok);

  // Account table sorted by tenant id.
  std::vector<AccountSnapshot> Snapshot() const;

  std::size_t num_accounts() const;

 private:
  MetricsRegistry* const metrics_;
  Counter* requests_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* cpu_ns_ = nullptr;
  Counter* device_kernel_ns_ = nullptr;
  Counter* dma_bytes_ = nullptr;
  Counter* queue_wait_ns_ = nullptr;
  Counter* plan_cache_bytes_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<std::string, AccountSnapshot> accounts_;
};

// Emits `accounts` as an array field named `key` of the writer's current
// scope — the shape served by /tenants and embedded next to "metrics" in
// fast_serve --metrics-json and the flight recorder.
void WriteAccountsJson(JsonWriter& w, const std::vector<AccountSnapshot>& accounts,
                       const char* key = "accounts");

// The same table as Prometheus families with a tenant label, e.g.
//   fast_tenant_requests_total{tenant="t0"} 42
// Appended to /metrics after the registry text (obs/export.h).
std::string AccountsToPrometheusText(const std::vector<AccountSnapshot>& accounts);

}  // namespace fast::obs

#endif  // FAST_OBS_ACCOUNTING_H_
