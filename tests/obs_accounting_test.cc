// Tests for per-tenant resource accounting (src/obs/accounting.h): charge
// attribution, the "__default" account, the global fast_account_* registry
// roll-ups staying equal to the per-tenant sums, the JSON/Prometheus
// emitters, and concurrent charging (the TSan target).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/accounting.h"
#include "obs/metrics.h"
#include "util/json_writer.h"

namespace fast {
namespace {

using obs::AccountSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::RequestCost;
using obs::RequestOutcome;
using obs::ResourceAccounts;

RequestCost MakeCost(std::uint64_t base) {
  RequestCost c;
  c.cpu_ns = base;
  c.device_kernel_ns = base * 2;
  c.dma_bytes = base * 3;
  c.queue_wait_ns = base * 4;
  c.plan_cache_bytes = base * 5;
  return c;
}

std::uint64_t CounterValue(const MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(ResourceAccountsTest, EmptyTenantChargesDefaultAccount) {
  ResourceAccounts accounts;
  accounts.Charge(accounts.Open(""), RequestOutcome::kCompleted, 0.0,
                  MakeCost(10));
  const auto snap = accounts.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].tenant, obs::kDefaultAccount);
  EXPECT_EQ(snap[0].requests, 1u);
  EXPECT_EQ(snap[0].errors, 0u);
  EXPECT_EQ(snap[0].cpu_ns, 10u);
  EXPECT_EQ(snap[0].plan_cache_bytes, 50u);
}

// One slot per id for the ledger's lifetime: "" and "__default" share one,
// and a slot shows up as a row only once something is charged to it.
TEST(ResourceAccountsTest, OpenResolvesOneSlotPerId) {
  ResourceAccounts accounts;
  obs::TenantSlot& a = accounts.Open("a");
  EXPECT_EQ(&accounts.Open("a"), &a);
  EXPECT_EQ(&accounts.Open(""), &accounts.Open(obs::kDefaultAccount));
  EXPECT_EQ(a.id(), "a");
  EXPECT_TRUE(accounts.Snapshot().empty());
  EXPECT_EQ(accounts.Slots().size(), 2u);

  accounts.Reject(a, /*quota=*/true);
  const auto snap = accounts.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].tenant, "a");
  EXPECT_EQ(snap[0].rejected_quota, 1u);
}

TEST(ResourceAccountsTest, AggregatesPerTenantAndCountsErrors) {
  ResourceAccounts accounts;
  accounts.Charge(accounts.Open("b"), RequestOutcome::kCompleted, 0.0,
                  MakeCost(1));
  accounts.Charge(accounts.Open("a"), RequestOutcome::kFailed, 0.0,
                  MakeCost(2));
  accounts.Charge(accounts.Open("a"), RequestOutcome::kCompleted, 0.0,
                  MakeCost(3));
  const auto snap = accounts.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Sorted by tenant id.
  EXPECT_EQ(snap[0].tenant, "a");
  EXPECT_EQ(snap[1].tenant, "b");
  EXPECT_EQ(snap[0].requests, 2u);
  EXPECT_EQ(snap[0].errors, 1u);
  EXPECT_EQ(snap[0].cpu_ns, 5u);
  EXPECT_EQ(snap[0].device_kernel_ns, 10u);
  EXPECT_EQ(snap[0].dma_bytes, 15u);
  EXPECT_EQ(snap[0].queue_wait_ns, 20u);
  EXPECT_EQ(snap[0].plan_cache_bytes, 25u);
  EXPECT_EQ(snap[1].requests, 1u);
  EXPECT_EQ(accounts.Snapshot().size(), 2u);
}

TEST(ResourceAccountsTest, GlobalRegistryCountersMatchPerTenantSums) {
  MetricsRegistry reg;
  ResourceAccounts accounts(&reg);
  accounts.Charge(accounts.Open("a"), RequestOutcome::kCompleted, 0.0,
                  MakeCost(7));
  accounts.Charge(accounts.Open("b"), RequestOutcome::kFailed, 0.0,
                  MakeCost(11));
  accounts.Charge(accounts.Open(""), RequestOutcome::kCompleted, 0.0,
                  MakeCost(13));

  std::uint64_t requests = 0, errors = 0, cpu = 0, kernel = 0, dma = 0,
                queue = 0, plan = 0;
  for (const AccountSnapshot& a : accounts.Snapshot()) {
    requests += a.requests;
    errors += a.errors;
    cpu += a.cpu_ns;
    kernel += a.device_kernel_ns;
    dma += a.dma_bytes;
    queue += a.queue_wait_ns;
    plan += a.plan_cache_bytes;
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(CounterValue(snap, "fast_account_requests_total"), requests);
  EXPECT_EQ(CounterValue(snap, "fast_account_errors_total"), errors);
  EXPECT_EQ(CounterValue(snap, "fast_account_cpu_ns_total"), cpu);
  EXPECT_EQ(CounterValue(snap, "fast_account_device_kernel_ns_total"), kernel);
  EXPECT_EQ(CounterValue(snap, "fast_account_dma_bytes_total"), dma);
  EXPECT_EQ(CounterValue(snap, "fast_account_queue_wait_ns_total"), queue);
  EXPECT_EQ(CounterValue(snap, "fast_account_plan_cache_bytes_total"), plan);
}

// The TSan target: many threads opening and charging overlapping tenants
// while another snapshots. Totals must come out exact — Charge is atomic per
// account.
TEST(ResourceAccountsTest, ConcurrentChargesStayConsistent) {
  MetricsRegistry reg;
  ResourceAccounts accounts(&reg);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const AccountSnapshot& a : accounts.Snapshot()) {
        EXPECT_LE(a.requests, static_cast<std::uint64_t>(kThreads) * kIters);
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&accounts, t] {
      // Each thread opens its slot while the others already charge theirs.
      obs::TenantSlot& slot = accounts.Open(t % 2 == 0 ? "even" : "odd");
      for (int i = 0; i < kIters; ++i) {
        accounts.Charge(slot,
                        i % 10 != 0 ? RequestOutcome::kCompleted
                                    : RequestOutcome::kFailed,
                        0.0, MakeCost(1));
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  scraper.join();

  std::uint64_t requests = 0;
  for (const AccountSnapshot& a : accounts.Snapshot()) requests += a.requests;
  EXPECT_EQ(requests, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(CounterValue(reg.Snapshot(), "fast_account_requests_total"),
            requests);
}

TEST(AccountingExportTest, JsonCarriesEveryCostDimension) {
  ResourceAccounts accounts;
  accounts.Charge(accounts.Open("t0"), RequestOutcome::kCompleted, 0.0,
                  MakeCost(9));
  JsonWriter w;
  obs::WriteAccountsJson(w, accounts.Snapshot());
  const std::string doc = w.Finish();
  EXPECT_NE(doc.find("\"accounts\""), std::string::npos);
  EXPECT_NE(doc.find("\"tenant\": \"t0\""), std::string::npos);
  EXPECT_NE(doc.find("\"requests\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"cpu_ns\": 9"), std::string::npos);
  EXPECT_NE(doc.find("\"device_kernel_ns\": 18"), std::string::npos);
  EXPECT_NE(doc.find("\"dma_bytes\": 27"), std::string::npos);
  EXPECT_NE(doc.find("\"queue_wait_ns\": 36"), std::string::npos);
  EXPECT_NE(doc.find("\"plan_cache_bytes\": 45"), std::string::npos);
}

TEST(AccountingExportTest, PrometheusTextLabelsEveryTenant) {
  ResourceAccounts accounts;
  accounts.Charge(accounts.Open("t0"), RequestOutcome::kCompleted, 0.0,
                  MakeCost(2));
  accounts.Charge(accounts.Open("t1"), RequestOutcome::kFailed, 0.0,
                  MakeCost(3));
  const std::string text = obs::AccountsToPrometheusText(accounts.Snapshot());
  EXPECT_NE(text.find("# TYPE fast_tenant_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fast_tenant_requests_total{tenant=\"t0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fast_tenant_requests_total{tenant=\"t1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fast_tenant_errors_total{tenant=\"t1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fast_tenant_cpu_ns_total{tenant=\"t0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fast_tenant_dma_bytes_total{tenant=\"t1\"} 9"),
            std::string::npos);
}

}  // namespace
}  // namespace fast
