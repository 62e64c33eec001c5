#ifndef FAST_UTIL_LATENCY_HISTOGRAM_H_
#define FAST_UTIL_LATENCY_HISTOGRAM_H_

// Log-bucketed latency histogram for service-level percentile reporting
// (p50/p99 over millions of requests in O(1) memory).
//
// Samples are recorded in integer microseconds into 2^k-wide octaves, each
// split into kSubBuckets linear sub-buckets, bounding the relative
// quantile error at 1/kSubBuckets (12.5%). Not thread-safe by itself: the
// serving pool's account table (obs/accounting.h) Records into each
// tenant's histogram under its lock and copies it out in snapshots; the
// router's stats() Merge()s those copies into its total outside any lock.

#include <cstdint>
#include <string>
#include <vector>

namespace fast {

class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kOctaves = 40;  // up to ~2^40 us ≈ 12.7 days
  static constexpr std::size_t kNumBuckets = kOctaves * kSubBuckets;

  void Record(double seconds);

  std::uint64_t count() const { return count_; }
  double sum_seconds() const { return sum_seconds_; }
  double mean_seconds() const {
    return count_ == 0 ? 0.0 : sum_seconds_ / static_cast<double>(count_);
  }
  double min_seconds() const { return count_ == 0 ? 0.0 : min_seconds_; }
  double max_seconds() const { return count_ == 0 ? 0.0 : max_seconds_; }

  // Upper bound of the bucket containing quantile q in [0, 1], in seconds.
  // Returns 0 for an empty histogram.
  double ValueAtQuantile(double q) const;
  double P50() const { return ValueAtQuantile(0.50); }
  double P90() const { return ValueAtQuantile(0.90); }
  double P99() const { return ValueAtQuantile(0.99); }
  double P999() const { return ValueAtQuantile(0.999); }

  // Non-empty buckets in ascending upper-bound order, counts per bucket
  // (NOT cumulative). This is the raw form behind the Prometheus
  // `_bucket{le=...}` export (obs/export.cc), which accumulates while
  // emitting; only occupied buckets are returned so a sparse histogram
  // exports O(distinct latencies) series, not kNumBuckets.
  struct Bucket {
    double upper_seconds = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> Buckets() const;

  void Merge(const LatencyHistogram& other);
  void Clear();

  // e.g. "n=1000 mean=1.2ms p50=0.9ms p99=4.1ms max=7.9ms"
  std::string Summary() const;

 private:
  static std::size_t BucketIndex(std::uint64_t micros);
  static double BucketUpperSeconds(std::size_t index);

  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_seconds_ = 0.0;
  double min_seconds_ = 0.0;
  double max_seconds_ = 0.0;
};

}  // namespace fast

#endif  // FAST_UTIL_LATENCY_HISTOGRAM_H_
