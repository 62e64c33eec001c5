#include "service/graph_state.h"

#include <optional>
#include <utility>
#include <vector>

#include "device/device_executor.h"
#include "obs/profiler.h"

namespace fast::service {

namespace {

bool IsIdentity(const std::vector<VertexId>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) return false;
  }
  return true;
}

// Remaps an embedding from canonical numbering back to the submitted
// numbering: submitted vertex u matched canonical position to_canonical[u].
void RemapEmbedding(const std::vector<VertexId>& to_canonical,
                    std::span<const VertexId> canonical, Embedding* out) {
  out->resize(to_canonical.size());
  for (std::size_t u = 0; u < to_canonical.size(); ++u) {
    (*out)[u] = canonical[to_canonical[u]];
  }
}

}  // namespace

GraphState::GraphState(Graph graph, const GraphStateOptions& options)
    : options_(options),
      cache_(options.plan_cache_capacity, options.plan_cache_byte_budget),
      graph_(std::make_shared<const Graph>(std::move(graph))) {
  if (options_.metrics != nullptr) {
    cache_.BindMetrics(options_.metrics);
    swaps_counter_ = options_.metrics->GetCounter(
        "fast_graph_swaps_total", "Graph snapshots published (swaps + deltas)");
    epoch_gauge_ = options_.metrics->GetGauge(
        "fast_graph_epoch", "Most recently published graph epoch");
    epoch_gauge_->Set(static_cast<double>(epoch_));
  }
}

GraphSnapshot GraphState::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return {graph_, epoch_};
}

void GraphState::publication_stats(std::uint64_t* epoch,
                                   std::uint64_t* swaps) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  *epoch = epoch_;
  *swaps = graph_swaps_;
}

std::uint64_t GraphState::Publish(Graph next) {
  auto published = std::make_shared<const Graph>(std::move(next));
  std::uint64_t new_epoch;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    graph_ = std::move(published);
    new_epoch = ++epoch_;
    ++graph_swaps_;
  }
  // Eager reclamation only: stale plans that race past this are caught by
  // the per-key epoch tag in Lookup.
  cache_.InvalidateBefore(new_epoch);
  if (swaps_counter_ != nullptr) swaps_counter_->Increment();
  if (epoch_gauge_ != nullptr) epoch_gauge_->Set(static_cast<double>(new_epoch));
  return new_epoch;
}

std::uint64_t GraphState::SwapGraph(Graph next) {
  std::lock_guard<std::mutex> writers(swap_mu_);
  return Publish(std::move(next));
}

StatusOr<std::uint64_t> GraphState::ApplyDelta(const GraphDelta& delta) {
  // One writer at a time, so the rebuild base cannot be superseded mid-apply;
  // queries keep dispatching against the current snapshot throughout.
  std::lock_guard<std::mutex> writers(swap_mu_);
  GraphSnapshot base = snapshot();
  FAST_ASSIGN_OR_RETURN(Graph next, fast::ApplyDelta(*base.graph, delta));
  return Publish(std::move(next));
}

void GraphState::Serve(const CanonicalQuery& canonical,
                       const RequestOptions& opts,
                       const FastRunOptions& base_run, double queue_seconds,
                       double deadline_seconds,
                       const std::shared_ptr<device::DeviceQueue>& device_queue,
                       obs::RequestTrace* trace, RequestResult* result) {
  result->queue_seconds = queue_seconds;
  if (deadline_seconds > 0.0 && queue_seconds > deadline_seconds) {
    result->status = Status::DeadlineExceeded("deadline passed while queued");
    return;
  }
  // Arm mid-run cancellation with whatever deadline remains; the token lives
  // on this worker's stack for the duration of the run.
  CancelToken deadline_token;
  const CancelToken* cancel = base_run.cancel;
  if (deadline_seconds > 0.0) {
    deadline_token.ArmDeadline(deadline_seconds - queue_seconds);
    cancel = &deadline_token;
  }
  // Capture the snapshot once at dispatch: the whole request — cache
  // lookup, build, run — sees one consistent {graph, epoch}, regardless
  // of concurrent swaps.
  if (trace != nullptr) trace->Begin(obs::Span::kSnapshot);
  const GraphSnapshot snap = snapshot();
  if (trace != nullptr) trace->End();
  result->graph_epoch = snap.epoch;
  Execute(canonical, opts, snap, base_run, cancel, device_queue, trace, result);
}

void GraphState::Execute(const CanonicalQuery& canonical,
                         const RequestOptions& opts, const GraphSnapshot& snap,
                         const FastRunOptions& base_run,
                         const CancelToken* cancel,
                         const std::shared_ptr<device::DeviceQueue>&
                             device_queue,
                         obs::RequestTrace* trace, RequestResult* result) {
  FastRunOptions run = base_run;
  run.explicit_order.reset();
  run.store_limit = opts.store_limit;
  run.cancel = cancel;
  // The pipeline below records its own spans (cst_build, match or
  // device_wait + reassembly, the simulated dma+kernel) through this pointer.
  run.trace = trace;

  const std::vector<VertexId>& to_canonical = canonical.to_canonical;
  const bool identity = IsIdentity(to_canonical);
  // Per-request callback overrides the base-config one; either way the
  // callback must observe embeddings in the submitted numbering, so wrap it
  // with the canonical->submitted remap when the permutation is non-trivial.
  const std::function<void(std::span<const VertexId>)>& callback =
      opts.on_embedding ? opts.on_embedding : base_run.embedding_callback;
  if (callback) {
    if (identity) {
      run.embedding_callback = callback;
    } else {
      run.embedding_callback = [&callback, &to_canonical,
                                scratch = Embedding()](
                                   std::span<const VertexId> emb) mutable {
        RemapEmbedding(to_canonical, emb, &scratch);
        callback(scratch);
      };
    }
  }

  std::shared_ptr<const CompiledPlan> cached;
  if (options_.plan_cache_capacity > 0) {
    if (trace != nullptr) trace->Begin(obs::Span::kPlanLookup);
    {
      FAST_PROF_STAGE("plan_lookup");
      cached = cache_.Lookup(canonical.key, snap.epoch);
    }
    if (trace != nullptr) trace->End();
  }
  result->cache_hit = cached != nullptr;
  // A hit replays the cached partitions: no CST build, no re-partition, and
  // on the device they are enqueued shared, not copied. A miss builds the
  // CST for the canonical query against this request's snapshot and records
  // its plan as partitions are emitted.
  auto record = cached == nullptr && options_.plan_cache_capacity > 0
                    ? std::make_shared<CompiledPlan>()
                    : nullptr;
  // Shared-device mode: a hit enqueues the cached partitions themselves, so
  // concurrent hits on one plan share each partition's PCIe transfer.
  std::optional<device::DevicePlacement> on_device;
  if (device_queue != nullptr) on_device.emplace(device_queue);
  StatusOr<FastRunResult> r =
      RunFast(canonical.query, *snap.graph, run,
              on_device.has_value() ? &*on_device : nullptr, cached.get(),
              record.get());
  // Only a run that finished has recorded every partition.
  if (r.ok() && record != nullptr &&
      cache_.Insert(canonical.key, snap.epoch, record)) {
    result->plan_bytes_charged = record->SizeBytes();
  }

  if (!r.ok()) {
    result->status = r.status();
    return;
  }
  result->run = std::move(*r);
  {
    obs::ScopedSpan remap_span(trace, obs::Span::kRemap);
    FAST_PROF_STAGE("remap");
    if (!identity) {
      // Everything client-visible is reported in the submitted numbering: the
      // sample embeddings and the matching order (root + visit sequence).
      for (Embedding& e : result->run.sample_embeddings) {
        Embedding remapped;
        RemapEmbedding(to_canonical, e, &remapped);
        e = std::move(remapped);
      }
      std::vector<VertexId> from_canonical(to_canonical.size());
      for (std::size_t u = 0; u < to_canonical.size(); ++u) {
        from_canonical[to_canonical[u]] = static_cast<VertexId>(u);
      }
      result->run.order.root = from_canonical[result->run.order.root];
      for (VertexId& v : result->run.order.order) v = from_canonical[v];
    }
  }
}

}  // namespace fast::service
