#include "service/plan_cache.h"

#include <utility>

namespace fast::service {

void PlanCache::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  hits_counter_ = registry->GetCounter("fast_plan_cache_hits_total",
                                       "Plan cache hits");
  misses_counter_ = registry->GetCounter("fast_plan_cache_misses_total",
                                         "Plan cache misses");
  insertions_counter_ = registry->GetCounter("fast_plan_cache_insertions_total",
                                             "Plans inserted or replaced");
  evictions_counter_ = registry->GetCounter(
      "fast_plan_cache_evictions_total", "Entries evicted by LRU/byte pressure");
  invalidations_counter_ =
      registry->GetCounter("fast_plan_cache_invalidations_total",
                           "Entries dropped for a superseded epoch");
  entries_gauge_ = registry->GetGauge("fast_plan_cache_entries",
                                      "Live plan cache entries (all caches)");
  bytes_gauge_ = registry->GetGauge(
      "fast_plan_cache_bytes", "Cached plan partition bytes (all caches)");
}

void PlanCache::EraseLocked(std::unordered_map<std::string, Entry>::iterator it,
                            std::uint64_t* counter) {
  const std::size_t bytes = it->second.bytes;
  stats_.bytes_in_use -= bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  ++*counter;
  if (entries_gauge_ != nullptr) {
    entries_gauge_->Add(-1.0);
    bytes_gauge_->Add(-static_cast<double>(bytes));
    (counter == &stats_.evictions ? evictions_counter_ : invalidations_counter_)
        ->Increment();
  }
}

void PlanCache::EvictToFitLocked() {
  while (entries_.size() > 1 &&
         (entries_.size() > capacity_ ||
          (byte_budget_ > 0 && stats_.bytes_in_use > byte_budget_))) {
    auto victim_it = entries_.find(lru_.back());
    EraseLocked(victim_it, &stats_.evictions);
  }
  stats_.entries = entries_.size();
}

std::shared_ptr<const CompiledPlan> PlanCache::Lookup(const std::string& key,
                                                      std::uint64_t epoch) {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    return nullptr;
  }
  if (it->second.epoch != epoch) {
    if (it->second.epoch < epoch) {
      // Built against a superseded snapshot: the publisher only moves
      // forward, so the entry is dead — drop it rather than let it age out
      // of the LRU.
      EraseLocked(it, &stats_.invalidations);
      stats_.entries = entries_.size();
    }
    // else: the entry is NEWER than this request's snapshot (an in-flight
    // request draining on an old epoch raced a rebuild). It is the one
    // current requests want — leave it alone and treat this as a miss.
    ++stats_.misses;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  if (hits_counter_ != nullptr) hits_counter_->Increment();
  return it->second.plan;
}

bool PlanCache::Insert(const std::string& key, std::uint64_t epoch,
                       std::shared_ptr<const CompiledPlan> plan) {
  if (capacity_ == 0 || plan == nullptr) return false;
  const std::size_t bytes = plan->SizeBytes();
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  // A plan from an already-invalidated epoch (a request draining on an old
  // snapshot) can never serve anyone — dropping it here keeps it from
  // entering at the MRU position and evicting a live current-epoch entry.
  if (epoch < min_epoch_) return false;
  if (byte_budget_ > 0 && bytes > byte_budget_) {
    ++stats_.rejected_oversized;
    return false;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Never replace a fresher plan with one a draining old-epoch request
    // just built — that would thrash the slot around every swap.
    if (it->second.epoch > epoch) return false;
    stats_.bytes_in_use = stats_.bytes_in_use - it->second.bytes + bytes;
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->Add(static_cast<double>(bytes) -
                        static_cast<double>(it->second.bytes));
      insertions_counter_->Increment();
    }
    it->second = Entry{it->second.lru_it, epoch, std::move(plan), bytes};
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    stats_.bytes_in_use += bytes;
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->Add(static_cast<double>(bytes));
      entries_gauge_->Add(1.0);
      insertions_counter_->Increment();
    }
    entries_.emplace(key, Entry{lru_.begin(), epoch, std::move(plan), bytes});
  }
  ++stats_.insertions;
  EvictToFitLocked();  // a replacement plan may be larger
  return true;
}

void PlanCache::InvalidateBefore(std::uint64_t epoch) {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  if (epoch > min_epoch_) min_epoch_ = epoch;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->second.epoch < epoch) EraseLocked(it, &stats_.invalidations);
    it = next;
  }
  stats_.entries = entries_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  PlanCacheStats s = stats_;
  s.entries = entries_.size();
  s.byte_budget = byte_budget_;
  return s;
}

}  // namespace fast::service
