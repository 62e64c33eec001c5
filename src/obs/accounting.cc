#include "obs/accounting.h"

#include <algorithm>
#include <string>
#include <utility>

namespace fast::obs {

namespace {

// The row counter of each RequestOutcome, in enum order.
constexpr std::uint64_t OutcomeCounts::*kOutcomeCounter[] = {
    &OutcomeCounts::completed, &OutcomeCounts::rejected_deadline,
    &OutcomeCounts::cancelled_midrun, &OutcomeCounts::failed};

}  // namespace

void OutcomeCounts::Add(const OutcomeCounts& other) {
  submitted += other.submitted;
  completed += other.completed;
  failed += other.failed;
  rejected_queue_full += other.rejected_queue_full;
  rejected_quota += other.rejected_quota;
  rejected_deadline += other.rejected_deadline;
  cancelled_midrun += other.cancelled_midrun;
  latency.Merge(other.latency);
}

ResourceAccounts::ResourceAccounts(MetricsRegistry* metrics)
    : metrics_(metrics) {
  if (metrics_ == nullptr) return;
  requests_ = metrics_->GetCounter("fast_account_requests_total",
                                   "Finished requests charged to any account");
  errors_ = metrics_->GetCounter("fast_account_errors_total",
                                 "Finished not-OK requests, any account");
  cpu_ns_ = metrics_->GetCounter("fast_account_cpu_ns_total",
                                 "Worker thread-CPU nanoseconds charged");
  device_kernel_ns_ =
      metrics_->GetCounter("fast_account_device_kernel_ns_total",
                           "Simulated device kernel nanoseconds charged");
  dma_bytes_ = metrics_->GetCounter("fast_account_dma_bytes_total",
                                    "Simulated PCIe bytes charged");
  queue_wait_ns_ = metrics_->GetCounter("fast_account_queue_wait_ns_total",
                                        "Submit->dispatch nanoseconds charged");
  plan_cache_bytes_ =
      metrics_->GetCounter("fast_account_plan_cache_bytes_total",
                           "Compiled-plan partition bytes inserted");
}

TenantSlot& ResourceAccounts::Open(const std::string& tenant) {
  const std::string& id = tenant.empty() ? kDefaultAccount : tenant;
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.try_emplace(id, id).first->second;
}

void ResourceAccounts::Admit(TenantSlot& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  ++slot.account.submitted;
}

void ResourceAccounts::Reject(TenantSlot& slot, bool quota) {
  std::lock_guard<std::mutex> lock(mu_);
  AccountSnapshot& a = slot.account;
  ++(quota ? a.rejected_quota : a.rejected_queue_full);
}

void ResourceAccounts::Charge(TenantSlot& slot, RequestOutcome outcome,
                              double seconds, const RequestCost& cost) {
  const bool ok = outcome == RequestOutcome::kCompleted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AccountSnapshot& a = slot.account;
    ++(a.*kOutcomeCounter[static_cast<std::size_t>(outcome)]);
    ++a.requests;
    if (ok) {
      a.latency.Record(seconds);
    } else {
      ++a.errors;
    }
    a.cpu_ns += cost.cpu_ns;
    a.device_kernel_ns += cost.device_kernel_ns;
    a.dma_bytes += cost.dma_bytes;
    a.queue_wait_ns += cost.queue_wait_ns;
    a.plan_cache_bytes += cost.plan_cache_bytes;
  }
  // Global roll-ups charged in the same call, outside the table lock — the
  // per-tenant sums and these counters agree up to requests in flight
  // between two scrapes.
  if (requests_ == nullptr) return;
  requests_->Increment();
  if (!ok) errors_->Increment();
  cpu_ns_->Increment(cost.cpu_ns);
  device_kernel_ns_->Increment(cost.device_kernel_ns);
  dma_bytes_->Increment(cost.dma_bytes);
  queue_wait_ns_->Increment(cost.queue_wait_ns);
  plan_cache_bytes_->Increment(cost.plan_cache_bytes);
}

std::vector<AccountSnapshot> ResourceAccounts::Snapshot() const {
  std::vector<AccountSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, slot] : slots_) {
    const AccountSnapshot& a = slot.account;
    // Every first charge bumps one of these, so they tell a row that was
    // ever charged from a slot that was only opened.
    if (a.submitted + a.rejected_queue_full + a.rejected_quota + a.requests >
        0) {
      out.push_back(a);
    }
  }
  return out;
}

std::vector<TenantSlot*> ResourceAccounts::Slots() {
  std::vector<TenantSlot*> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(slots_.size());
  for (auto& [id, slot] : slots_) out.push_back(&slot);
  return out;
}

const AccountSnapshot* FindAccount(const std::vector<AccountSnapshot>& accounts,
                                   const std::string& id) {
  const auto it = std::lower_bound(
      accounts.begin(), accounts.end(), id,
      [](const AccountSnapshot& a, const std::string& n) { return a.tenant < n; });
  return it != accounts.end() && it->tenant == id ? &*it : nullptr;
}

void WriteAccountsJson(JsonWriter& w, const std::vector<AccountSnapshot>& accounts,
                       const char* key) {
  w.BeginArray(key);
  for (const AccountSnapshot& a : accounts) {
    w.BeginObject();
    w.Field("tenant", a.tenant);
    w.Field("requests", a.requests);
    w.Field("errors", a.errors);
    w.Field("cpu_ns", a.cpu_ns);
    w.Field("device_kernel_ns", a.device_kernel_ns);
    w.Field("dma_bytes", a.dma_bytes);
    w.Field("queue_wait_ns", a.queue_wait_ns);
    w.Field("plan_cache_bytes", a.plan_cache_bytes);
    w.EndObject();
  }
  w.EndArray();
}

std::string AccountsToPrometheusText(
    const std::vector<AccountSnapshot>& accounts) {
  std::string out;
  const auto family = [&](const char* name, const char* help,
                          auto field) {
    out += std::string("# HELP ") + name + " " + help + "\n";
    out += std::string("# TYPE ") + name + " counter\n";
    for (const AccountSnapshot& a : accounts) {
      out += std::string(name) + "{tenant=\"" + a.tenant + "\"} " +
             std::to_string(field(a)) + "\n";
    }
  };
  family("fast_tenant_requests_total", "Finished requests per tenant",
         [](const AccountSnapshot& a) { return a.requests; });
  family("fast_tenant_errors_total", "Finished not-OK requests per tenant",
         [](const AccountSnapshot& a) { return a.errors; });
  family("fast_tenant_cpu_ns_total",
         "Worker thread-CPU nanoseconds per tenant",
         [](const AccountSnapshot& a) { return a.cpu_ns; });
  family("fast_tenant_device_kernel_ns_total",
         "Simulated device kernel nanoseconds per tenant",
         [](const AccountSnapshot& a) { return a.device_kernel_ns; });
  family("fast_tenant_dma_bytes_total", "Simulated PCIe bytes per tenant",
         [](const AccountSnapshot& a) { return a.dma_bytes; });
  family("fast_tenant_queue_wait_ns_total",
         "Submit->dispatch nanoseconds per tenant",
         [](const AccountSnapshot& a) { return a.queue_wait_ns; });
  family("fast_tenant_plan_cache_bytes_total",
         "Compiled-plan partition bytes inserted per tenant",
         [](const AccountSnapshot& a) { return a.plan_cache_bytes; });
  return out;
}

}  // namespace fast::obs
