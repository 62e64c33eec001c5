// Tests for lock contention accounting: ProfiledMutex exactness under a
// multi-thread hammer, guaranteed-contended acquisition, Lockable /
// condition_variable_any interop, and the by-name SnapshotLockStats
// aggregation (src/util/profiled_mutex.h), including the serving pool's
// named scheduler lock.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/profiled_mutex.h"
#include "util/timer.h"

namespace fast {
namespace {

using util::LockStats;
using util::ProfiledMutex;
using util::SnapshotLockStats;

// Polls `pred` until true or ~2s; the deterministic way to know a peer
// thread has entered its blocking wait (the counters bump BEFORE the wait).
template <typename Pred>
bool WaitFor(Pred pred) {
  Timer t;
  while (!pred()) {
    if (t.ElapsedSeconds() > 2.0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ProfiledMutexTest, HammerCountsEveryAcquisitionExactly) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  ProfiledMutex mu;
  std::uint64_t guarded = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<ProfiledMutex> lock(mu);
        ++guarded;
      }
    });
  }
  for (auto& t : threads) t.join();
  const LockStats s = mu.Stats();
  // The counter value proves mutual exclusion; the acquisition count must be
  // EXACT — every lock() is one acquisition, contended or not.
  EXPECT_EQ(guarded, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.acquisitions, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.contended, s.acquisitions);
  EXPECT_LE(s.max_wait_ns, s.total_wait_ns + 1);  // max is one of the waits
  EXPECT_LE(s.max_hold_ns, s.total_hold_ns);
}

TEST(ProfiledMutexTest, BlockedAcquisitionCountsAsContended) {
  ProfiledMutex mu;
  std::atomic<bool> holder_has_lock{false};
  std::thread holder([&] {
    std::lock_guard<ProfiledMutex> lock(mu);
    holder_has_lock.store(true);
    // Hold long enough that the waiter's lock() definitely misses its
    // try_lock fast path and takes the timed blocking path.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  ASSERT_TRUE(WaitFor([&] { return holder_has_lock.load(); }));
  {
    std::lock_guard<ProfiledMutex> lock(mu);  // guaranteed to block
  }
  holder.join();
  const LockStats s = mu.Stats();
  EXPECT_EQ(s.acquisitions, 2u);
  EXPECT_EQ(s.contended, 1u);
  EXPECT_GT(s.total_wait_ns, 0u);
  EXPECT_EQ(s.max_wait_ns, s.total_wait_ns);  // only one wait happened
  EXPECT_GT(s.max_hold_ns, std::uint64_t{20} * 1000 * 1000);  // >= ~50ms hold
}

TEST(ProfiledMutexTest, TryLockFailsOnHeldAndCountsOnSuccess) {
  ProfiledMutex mu;
  mu.lock();
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  const LockStats s = mu.Stats();
  EXPECT_EQ(s.acquisitions, 2u);  // the failed try_lock is not an acquisition
  EXPECT_EQ(s.contended, 0u);     // try_lock never blocks
}

TEST(ProfiledMutexTest, ConditionVariableAnyInterop) {
  ProfiledMutex mu;
  std::condition_variable_any cv;
  std::atomic<bool> waiter_locked{false};
  bool ready = false;
  std::thread waiter([&] {
    std::unique_lock<ProfiledMutex> lock(mu);
    waiter_locked.store(true);
    cv.wait(lock, [&] { return ready; });
  });
  // waiter_locked is set while the waiter holds mu, so once we both see it
  // and acquire mu ourselves, the waiter must be parked inside cv.wait.
  ASSERT_TRUE(WaitFor([&] { return waiter_locked.load(); }));
  {
    std::lock_guard<ProfiledMutex> lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  // Waiter's initial lock + our lock + the re-acquisition after the wake.
  EXPECT_GE(mu.Stats().acquisitions, 3u);
}

TEST(ProfiledMutexTest, SnapshotAggregatesInstancesByName) {
  // Two instances sharing one name roll up into one row (how the N
  // per-tenant plan caches all report as "plan_cache").
  ProfiledMutex a("dup_lock_name");
  ProfiledMutex b("dup_lock_name");
  ProfiledMutex other("other_lock_name");
  for (int i = 0; i < 3; ++i) {
    std::lock_guard<ProfiledMutex> lock(a);
  }
  for (int i = 0; i < 2; ++i) {
    std::lock_guard<ProfiledMutex> lock(b);
  }
  { std::lock_guard<ProfiledMutex> lock(other); }

  const std::vector<LockStats> rows = SnapshotLockStats();
  // Sorted by name.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].name, rows[i].name);
  }
  bool found_dup = false, found_other = false;
  for (const LockStats& r : rows) {
    if (r.name == "dup_lock_name") {
      found_dup = true;
      EXPECT_EQ(r.acquisitions, 5u);
    }
    if (r.name == "other_lock_name") {
      found_other = true;
      EXPECT_EQ(r.acquisitions, 1u);
    }
  }
  EXPECT_TRUE(found_dup);
  EXPECT_TRUE(found_other);
}

TEST(ProfiledMutexTest, DestroyedInstanceLeavesRegistry) {
  {
    ProfiledMutex temp("temp_lock_name");
    std::lock_guard<ProfiledMutex> lock(temp);
  }
  for (const LockStats& r : SnapshotLockStats()) {
    EXPECT_NE(r.name, "temp_lock_name");
  }
}

// The router's scheduler lock is a named ProfiledMutex: one served request
// (admission pre-check, enqueue, worker pop) shows up under "router_sched",
// and the row leaves the registry with the service.
TEST(ProfiledMutexTest, RouterSchedLockAggregatesInRegistry) {
  auto sched_acquisitions = [] {
    for (const LockStats& r : SnapshotLockStats()) {
      if (r.name == "router_sched") return r.acquisitions;
    }
    return std::uint64_t{0};
  };
  {
    service::ServiceOptions options;
    options.num_workers = 1;
    service::MatchService svc(testing::PaperDataGraph(), options);
    const std::uint64_t before = sched_acquisitions();
    EXPECT_GT(before, 0u);  // AddTenant registered the graph under it
    ASSERT_TRUE(svc.SubmitAndWait(testing::PaperQuery()).ok());
    EXPECT_GE(sched_acquisitions(), before + 3);
  }
  for (const LockStats& r : SnapshotLockStats()) {
    EXPECT_NE(r.name, "router_sched");
  }
}

}  // namespace
}  // namespace fast
