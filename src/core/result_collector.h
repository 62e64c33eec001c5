#ifndef FAST_CORE_RESULT_COLLECTOR_H_
#define FAST_CORE_RESULT_COLLECTOR_H_

// Embedding sink shared by the FPGA kernel, the CPU matcher and the
// baselines. Subgraph matching on LDBC-scale inputs can produce billions of
// embeddings, so the default is count-only; callers may additionally store
// the first `store_limit` embeddings (tests, examples) or install a callback.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace fast {

// An embedding maps query vertex u -> mapping[u] (data vertex).
using Embedding = std::vector<VertexId>;

class ResultCollector {
 public:
  // store_limit: how many embeddings to retain (0 = count only).
  explicit ResultCollector(std::size_t store_limit = 0)
      : store_limit_(store_limit) {}

  // Optional per-embedding callback (invoked before storage).
  void SetCallback(std::function<void(std::span<const VertexId>)> cb) {
    callback_ = std::move(cb);
  }

  void OnEmbedding(std::span<const VertexId> mapping) {
    ++count_;
    if (callback_) callback_(mapping);
    if (stored_.size() < store_limit_) {
      stored_.emplace_back(mapping.begin(), mapping.end());
    }
  }

  std::uint64_t count() const { return count_; }
  const std::vector<Embedding>& stored() const { return stored_; }
  std::size_t store_limit() const { return store_limit_; }
  const std::function<void(std::span<const VertexId>)>& callback() const {
    return callback_;
  }

  // Merges counts and stored embeddings from another collector (used to join
  // per-thread collectors, e.g. CECI-8, and the shared device's per-item
  // collectors).
  void Merge(const ResultCollector& other) {
    count_ += other.count_;
    for (const auto& e : other.stored_) {
      if (stored_.size() >= store_limit_) break;
      stored_.push_back(e);
    }
  }

 private:
  std::size_t store_limit_;
  std::uint64_t count_ = 0;
  std::vector<Embedding> stored_;
  std::function<void(std::span<const VertexId>)> callback_;
};

}  // namespace fast

#endif  // FAST_CORE_RESULT_COLLECTOR_H_
