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
// ResourceAccounts is the serving pool's one per-instance ledger: a slot per
// tenant id ("__default" for requests without one) holding the account row
// (request outcomes and OK-request latency next to the summed cost vectors)
// and the SLO windows (obs/slo.h). A slot is opened once, at registration,
// and charged through without a tenant-id lookup; it lives as long as the
// ledger, so a re-added id gets its old slot back and keeps counting. The
// router's stats(), /tenants, the flight recorder and exported metrics JSON
// all read Snapshot(). The cost totals are mirrored into the registry as
// fast_account_* counters in the same Charge call, so the per-tenant table
// sums to them (modulo requests in flight between the two scrapes).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "util/json_writer.h"
#include "util/latency_histogram.h"

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

// How a dispatched (or expired) request finished.
enum class RequestOutcome {
  kCompleted,
  kRejectedDeadline,   // deadline passed while queued; never dispatched
  kCancelledMidrun,    // deadline tripped during the run
  kFailed,             // pipeline error
};

// Request outcome counts: one set per tenant in the account table, summed
// into the router's stats views (tenant/tenant_router.h).
struct OutcomeCounts {
  std::uint64_t submitted = 0;            // admitted to the queue
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_queue_full = 0;  // global queue was full
  std::uint64_t rejected_quota = 0;       // per-tenant quota exceeded
  std::uint64_t rejected_deadline = 0;    // deadline passed while queued
  std::uint64_t cancelled_midrun = 0;     // deadline tripped during the run
  LatencyHistogram latency;  // Submit -> completion, successful requests

  void Add(const OutcomeCounts& other);
};

// One tenant's accumulated account (also the snapshot row).
struct AccountSnapshot : OutcomeCounts {
  std::string tenant;
  // requests == completed + failed + rejected_deadline + cancelled_midrun.
  std::uint64_t requests = 0;  // every finished request, any outcome
  std::uint64_t errors = 0;    // finished not-OK
  std::uint64_t cpu_ns = 0;
  std::uint64_t device_kernel_ns = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t plan_cache_bytes = 0;
};

// One tenant id's attribution state. `account` is guarded by the owning
// ResourceAccounts' lock, `slo` by the SloEngine's; the id never changes.
struct TenantSlot {
  explicit TenantSlot(const std::string& id) { account.tenant = id; }

  const std::string& id() const { return account.tenant; }

  AccountSnapshot account;
  TenantSlo slo;
};

class ResourceAccounts {
 public:
  // `metrics` receives the global fast_account_* roll-up counters; nullptr
  // keeps per-tenant aggregation only. Non-owning.
  explicit ResourceAccounts(MetricsRegistry* metrics = nullptr);

  ResourceAccounts(const ResourceAccounts&) = delete;
  ResourceAccounts& operator=(const ResourceAccounts&) = delete;

  // The slot of `tenant` (empty -> "__default"): opened by the first call,
  // the same slot on every later one. It lives as long as the ledger.
  // Thread-safe, like every method here.
  TenantSlot& Open(const std::string& tenant);

  // Admission outcomes of one Submit to the slot's tenant.
  void Admit(TenantSlot& slot);
  void Reject(TenantSlot& slot, bool quota);

  // Charges one finished request to the slot's tenant: its outcome, its
  // latency (`seconds`, recorded for completed requests) and its cost, and
  // bumps the global registry counters.
  void Charge(TenantSlot& slot, RequestOutcome outcome, double seconds,
              const RequestCost& cost);

  // Rows of every tenant charged at least once, sorted by tenant id (an
  // opened slot with nothing charged has no row yet).
  std::vector<AccountSnapshot> Snapshot() const;

  // Every opened slot, sorted by tenant id.
  std::vector<TenantSlot*> Slots();

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
  // std::map: stable slot addresses, and Snapshot comes out sorted.
  std::map<std::string, TenantSlot> slots_;
};

// The row of account id `id` (a TenantSlot::id()) in a Snapshot() table;
// nullptr before the tenant's first charge.
const AccountSnapshot* FindAccount(const std::vector<AccountSnapshot>& accounts,
                                   const std::string& id);

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
