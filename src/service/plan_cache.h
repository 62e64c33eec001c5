#ifndef FAST_SERVICE_PLAN_CACHE_H_
#define FAST_SERVICE_PLAN_CACHE_H_

// Thread-safe LRU cache of compiled plans for the match service.
//
// An entry is an immutable CompiledPlan (core/compiled_plan.h): the matching
// order and the CST's partitions, in the canonical query numbering of the
// cache key. A hit skips order computation, CST construction and Alg. 2
// partitioning; the request goes straight to matching the cached partitions,
// which every hit shares read-only.
//
// Plans are data-dependent: the CST enumerates candidate vertices of the
// data graph, so a plan built against one graph snapshot is garbage against
// any other. Every entry is therefore tagged with the graph epoch it was
// built on (see MatchService snapshot semantics); Lookup treats an epoch
// mismatch as a miss, dropping the entry on the spot when it is older than
// the request's snapshot (published epochs are monotone, so it can never
// become valid again) and leaving it in place when it is newer (a request
// draining on an old snapshot must not evict — or overwrite, see Insert —
// what current requests use). InvalidateBefore lets the publisher reclaim a
// whole superseded epoch eagerly — correctness never depends on it, the
// per-key epoch check is the safety net.
//
// Entries are handed out as shared_ptr, so readers never hold the cache lock
// while using a plan.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/compiled_plan.h"
#include "obs/metrics.h"
#include "util/profiled_mutex.h"

namespace fast::service {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;      // LRU capacity or byte-budget pressure
  std::uint64_t invalidations = 0;  // dropped for a superseded epoch
  std::uint64_t rejected_oversized = 0;  // plans over the budget, not cached
  std::size_t entries = 0;
  std::size_t bytes_in_use = 0;  // Σ CompiledPlan::SizeBytes() of the entries
  std::size_t byte_budget = 0;   // configured bound; 0 = entries-only bound

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  // capacity = max entries; 0 disables caching (Lookup always misses,
  // Insert is a no-op), which is the bench's cache-off baseline.
  // byte_budget bounds the summed partition bytes of the cached plans in
  // addition to the entry count (hub-heavy queries produce CSTs orders of
  // magnitude larger than typical, so an entry bound alone does not bound
  // memory); 0 = no byte bound. A single plan larger than the whole budget
  // is not cached (counted in rejected_oversized): evicting every live entry
  // to admit one query's plan would thrash the cache.
  explicit PlanCache(std::size_t capacity, std::size_t byte_budget = 0)
      : capacity_(capacity), byte_budget_(byte_budget) {}

  // Returns the plan and refreshes its LRU position, or nullptr on miss.
  // An entry tagged with a different epoch is a miss; it is also erased
  // when its epoch is older than the request's.
  std::shared_ptr<const CompiledPlan> Lookup(const std::string& key,
                                             std::uint64_t epoch);

  // Inserts (or replaces) the plan, tagged with the graph epoch it was built
  // on, and evicts the least recently used entries beyond capacity. An
  // existing entry with a newer epoch is kept (the insert is dropped).
  // Concurrent builders of the same key and epoch are harmless: the last
  // insert wins and both plans are valid. Returns whether the plan was
  // cached (false when caching is off, the epoch is stale or the plan is
  // over the byte budget).
  bool Insert(const std::string& key, std::uint64_t epoch,
              std::shared_ptr<const CompiledPlan> plan);

  // Drops every entry tagged with an epoch < `epoch`, and rejects future
  // Inserts below it (a draining old-epoch request must not push a dead
  // plan in and evict a live one). Called by the snapshot publisher right
  // after a swap to reclaim plan memory eagerly.
  void InvalidateBefore(std::uint64_t epoch);

  PlanCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t byte_budget() const { return byte_budget_; }

  // Additionally reports cache traffic into the process-wide registry
  // (fast_plan_cache_* counters; entries/bytes gauges are adjusted by delta,
  // so several caches — one per tenant — sum correctly into one gauge).
  // Call before the cache sees traffic; the registry must outlive the cache.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    std::list<std::string>::iterator lru_it;
    std::uint64_t epoch = 0;
    std::shared_ptr<const CompiledPlan> plan;
    std::size_t bytes = 0;  // plan->SizeBytes(), computed once at insert
  };

  // Erases an entry (caller holds mu_), accounting `counter`.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it,
                   std::uint64_t* counter);

  // Evicts LRU entries until both the entry count and the byte budget hold
  // (caller holds mu_). The MRU entry is never evicted.
  void EvictToFitLocked();

  const std::size_t capacity_;
  const std::size_t byte_budget_;
  // Registry metrics (null until BindMetrics): bumped alongside stats_ under
  // mu_, mirroring the per-instance counters into the process-wide view.
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* insertions_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  mutable util::ProfiledMutex mu_{"plan_cache"};
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t min_epoch_ = 0;  // floor set by InvalidateBefore
  PlanCacheStats stats_;
};

}  // namespace fast::service

#endif  // FAST_SERVICE_PLAN_CACHE_H_
