#include "net/wire_server.h"

#include <utility>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fast::net {

namespace {

// Rows of one embedding batch currently buffered for streaming.
std::size_t BatchRows(const EmbeddingPayload& b) { return b.rows(); }

}  // namespace

struct WireServer::Connection {
  explicit Connection(ScopedFd socket) : fd(std::move(socket)) {}

  ScopedFd fd;
  // Serializes frame writes so concurrent completion callbacks interleave at
  // frame granularity, never mid-frame.
  std::mutex write_mu;
  std::atomic<std::uint32_t> inflight{0};
  std::atomic<bool> closed{false};
  std::thread reader;
};

WireServer::WireServer(service::Frontend* frontend, WireServerOptions options)
    : frontend_(frontend), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m_frames_received_ = m->GetCounter("fast_wire_frames_received_total",
                                       "Frames received on wire connections");
    m_frames_sent_ = m->GetCounter("fast_wire_frames_sent_total",
                                   "Frames written to wire connections");
    m_pushback_ = m->GetCounter("fast_wire_pushback_total",
                                "PUSHBACK frames sent (flow control)");
    m_protocol_errors_ =
        m->GetCounter("fast_wire_protocol_errors_total",
                      "Framing violations that closed a connection");
    m_encode_seconds_ = m->GetHistogram(
        "fast_span_encode_seconds", "Wire span: response frame encode");
    m_send_seconds_ = m->GetHistogram("fast_span_send_seconds",
                                      "Wire span: response socket write");
  }
}

WireServer::~WireServer() { Shutdown(); }

Status WireServer::Start() {
  FAST_ASSIGN_OR_RETURN(listener_,
                        ListenTcp(options_.host, options_.port, &port_));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WireServer::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  ShutdownFd(listener_.get());
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    conn->closed.store(true, std::memory_order_relaxed);
    ShutdownFd(conn->fd.get());
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // Completion callbacks still in flight inside the frontend hold their own
  // shared_ptr<Connection>; they see `closed` and drop their frames.
}

WireServerStats WireServer::stats() const {
  WireServerStats s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_closed =
      counters_.connections_closed.load(std::memory_order_relaxed);
  s.frames_received = counters_.frames_received.load(std::memory_order_relaxed);
  s.frames_sent = counters_.frames_sent.load(std::memory_order_relaxed);
  s.submits = counters_.submits.load(std::memory_order_relaxed);
  s.pushback_queue = counters_.pushback_queue.load(std::memory_order_relaxed);
  s.pushback_conn = counters_.pushback_conn.load(std::memory_order_relaxed);
  s.errors_sent = counters_.errors_sent.load(std::memory_order_relaxed);
  s.protocol_errors = counters_.protocol_errors.load(std::memory_order_relaxed);
  return s;
}

void WireServer::AcceptLoop() {
  obs::Profiler::RegisterCurrentThread("net-accept", obs::ThreadKind::kNet);
  for (;;) {
    StatusOr<ScopedFd> accepted = AcceptTcp(listener_.get());
    if (!accepted.ok()) {
      // Listener shut down (normal exit) or a transient accept failure
      // during teardown; either way stop when asked to.
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    auto conn = std::make_shared<Connection>(std::move(*accepted));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
  }
}

void WireServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  obs::Profiler::RegisterCurrentThread("net-conn", obs::ThreadKind::kNet);
  FrameDecoder decoder(options_.max_body);
  std::vector<std::uint8_t> buf(64u << 10);
  bool protocol_error = false;
  while (!protocol_error) {
    StatusOr<std::size_t> n = RecvSome(conn->fd.get(), buf.data(), buf.size());
    if (!n.ok() || *n == 0) break;  // EOF, reset, or Shutdown()
    decoder.Feed({buf.data(), *n});
    for (;;) {
      Frame frame;
      StatusOr<bool> has = decoder.Next(&frame);
      if (!has.ok()) {
        // Unrecoverable byte stream: close, don't guess at resync.
        FAST_LOG(WARNING) << "wire: closing connection: "
                          << has.status().ToString();
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        if (m_protocol_errors_ != nullptr) m_protocol_errors_->Increment();
        protocol_error = true;
        break;
      }
      if (!*has) break;
      counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
      if (m_frames_received_ != nullptr) m_frames_received_->Increment();
      HandleFrame(conn, std::move(frame), decoder.last_assembly_seconds());
    }
  }
  conn->closed.store(true, std::memory_order_relaxed);
  ShutdownFd(conn->fd.get());
  counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void WireServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                             Frame frame, double assembly_seconds) {
  switch (frame.header.type) {
    case FrameType::kHello: {
      std::vector<std::uint8_t> payload;
      EncodeHelloAckPayload({.max_inflight = options_.max_inflight_per_conn},
                            &payload);
      FrameHeader h;
      h.type = FrameType::kHelloAck;
      h.request_id = frame.header.request_id;
      SendFrame(conn, h, payload);
      return;
    }
    case FrameType::kPing: {
      FrameHeader h;
      h.type = FrameType::kPong;
      h.request_id = frame.header.request_id;
      SendFrame(conn, h, {});
      return;
    }
    case FrameType::kSubmit:
      HandleSubmit(conn, std::move(frame), assembly_seconds);
      return;
    case FrameType::kPong:
      return;  // unsolicited, ignore
    default: {
      // Server-bound streams must not carry server->client types; report it
      // on the request id but keep the connection (the framing is intact).
      std::vector<std::uint8_t> payload;
      EncodeStatusPayload(
          {.code = static_cast<std::uint32_t>(StatusCode::kInvalidArgument),
           .message = std::string("unexpected frame type ") +
                      FrameTypeName(frame.header.type)},
          &payload);
      FrameHeader h;
      h.type = FrameType::kError;
      h.request_id = frame.header.request_id;
      SendFrame(conn, h, payload);
      counters_.errors_sent.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void WireServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                              Frame frame, double assembly_seconds) {
  const std::uint64_t wire_id = frame.header.request_id;

  auto send_status = [&](FrameType type, std::uint8_t flags, StatusCode code,
                         std::string message) {
    std::vector<std::uint8_t> payload;
    EncodeStatusPayload({.code = static_cast<std::uint32_t>(code),
                         .message = std::move(message)},
                        &payload);
    FrameHeader h;
    h.type = type;
    h.request_id = wire_id;
    h.flags = flags;
    SendFrame(conn, h, payload);
    if (type == FrameType::kPushback) {
      if (m_pushback_ != nullptr) m_pushback_->Increment();
    } else {
      counters_.errors_sent.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // The trace is wire-anchored: constructed at frame receive, carrying the
  // frame-assembly wall time as the recv span, then handed to the frontend
  // via resume_trace so the service-side spans land in the same record.
  std::shared_ptr<obs::RequestTrace> trace;
  if (options_.tracing) {
    trace = std::make_shared<obs::RequestTrace>();
    trace->RecordWall(obs::Span::kRecv, assembly_seconds);
    trace->Begin(obs::Span::kDecode);
  }
  StatusOr<SubmitPayload> submit = DecodeSubmitPayload(frame.payload);
  if (trace != nullptr) trace->End();
  if (!submit.ok()) {
    send_status(FrameType::kError, 0, submit.status().code(),
                submit.status().message());
    return;
  }

  // Connection-window flow control. Only this reader thread increments, so
  // check-then-increment cannot race another submit on the same connection.
  if (options_.max_inflight_per_conn > 0 &&
      conn->inflight.load(std::memory_order_relaxed) >=
          options_.max_inflight_per_conn) {
    counters_.pushback_conn.fetch_add(1, std::memory_order_relaxed);
    send_status(FrameType::kPushback, kFlagConnLimit,
                StatusCode::kResourceExhausted,
                "connection in-flight window full");
    return;
  }
  conn->inflight.fetch_add(1, std::memory_order_relaxed);

  const bool streaming =
      (frame.header.flags & kFlagStreamEmbeddings) != 0 &&
      submit->store_limit > 0;

  // Per-request streaming state. on_embedding calls are serialized per
  // request but may run on the device thread or on any worker; on_complete
  // runs on the worker serving this request after the last of them. So no
  // lock beyond the connection's write_mu (taken inside SendFrame).
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::uint64_t wire_id = 0;
    bool streaming = false;
    std::size_t limit = 0;
    std::size_t streamed = 0;
    EmbeddingPayload batch;
  };
  auto pending = std::make_shared<Pending>();
  pending->conn = conn;
  pending->wire_id = wire_id;
  pending->streaming = streaming;
  pending->limit = static_cast<std::size_t>(submit->store_limit);

  auto flush_batch = [this](const std::shared_ptr<Pending>& p) {
    if (BatchRows(p->batch) == 0) return;
    std::vector<std::uint8_t> payload;
    EncodeEmbeddingPayload(p->batch, &payload);
    FrameHeader h;
    h.type = FrameType::kEmbedding;
    h.request_id = p->wire_id;
    SendFrame(p->conn, h, payload);
    p->batch.vertices.clear();
  };

  service::RequestOptions opts;
  opts.resume_trace = std::move(trace);
  if (frame.header.deadline_us > 0) {
    opts.deadline_seconds =
        static_cast<double>(frame.header.deadline_us) * 1e-6;
  }
  if (streaming) {
    // Stream as matched instead of storing in the result.
    const std::size_t chunk = options_.stream_rows_per_frame;
    opts.on_embedding = [pending, flush_batch,
                         chunk](std::span<const VertexId> emb) {
      if (pending->streamed >= pending->limit) return;
      if (pending->batch.width == 0) {
        pending->batch.width = static_cast<std::uint32_t>(emb.size());
      }
      pending->batch.vertices.insert(pending->batch.vertices.end(),
                                     emb.begin(), emb.end());
      ++pending->streamed;
      if (BatchRows(pending->batch) >= chunk) flush_batch(pending);
    };
  } else {
    opts.store_limit = static_cast<std::size_t>(submit->store_limit);
  }

  opts.on_complete = [this, pending, flush_batch](
                         std::uint64_t /*internal_id*/,
                         const service::RequestResult& result) {
    if (pending->streaming) {
      flush_batch(pending);
    } else if (result.status.ok() && !result.run.sample_embeddings.empty()) {
      // Sampled (non-streamed) embeddings ride back the same frame type,
      // batched.
      for (std::size_t i = 0; i < result.run.sample_embeddings.size();) {
        pending->batch.vertices.clear();
        pending->batch.width = static_cast<std::uint32_t>(
            result.run.sample_embeddings[i].size());
        while (i < result.run.sample_embeddings.size() &&
               BatchRows(pending->batch) < options_.stream_rows_per_frame) {
          const auto& emb = result.run.sample_embeddings[i];
          pending->batch.vertices.insert(pending->batch.vertices.end(),
                                         emb.begin(), emb.end());
          ++i;
        }
        flush_batch(pending);
      }
    }
    ResultPayload rp;
    rp.status_code = static_cast<std::uint32_t>(result.status.code());
    rp.message = result.status.message();
    rp.embeddings = result.status.ok() ? result.run.embeddings : 0;
    rp.graph_epoch = result.graph_epoch;
    rp.queue_seconds = result.queue_seconds;
    rp.total_seconds = result.total_seconds;
    rp.cache_hit = result.cache_hit;
    std::vector<std::uint8_t> payload;
    EncodeResultPayload(rp, &payload);
    FrameHeader h;
    h.type = FrameType::kResult;
    h.request_id = pending->wire_id;
    SendFrame(pending->conn, h, payload);
    pending->conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  };

  counters_.submits.fetch_add(1, std::memory_order_relaxed);
  StatusOr<service::Frontend::RequestId> id = frontend_->Submit(
      frame.header.tenant, submit->query, std::move(opts));
  if (!id.ok()) {
    conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (id.status().code() == StatusCode::kResourceExhausted) {
      // The service admission queue (or tenant quota) is full: protocol
      // pushback, not a dropped connection.
      counters_.pushback_queue.fetch_add(1, std::memory_order_relaxed);
      send_status(FrameType::kPushback, 0, id.status().code(),
                  id.status().message());
    } else {
      send_status(FrameType::kError, 0, id.status().code(),
                  id.status().message());
    }
  }
}

void WireServer::SendFrame(const std::shared_ptr<Connection>& conn,
                           const FrameHeader& header,
                           std::span<const std::uint8_t> payload) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  Timer encode_timer;
  std::vector<std::uint8_t> wire;
  wire.reserve(kPreludeBytes + header.tenant.size() + payload.size());
  EncodeFrame(header, payload, &wire);
  if (m_encode_seconds_ != nullptr) {
    m_encode_seconds_->Record(encode_timer.ElapsedSeconds());
  }
  Timer send_timer;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->closed.load(std::memory_order_relaxed)) return;
    const Status s = SendAll(conn->fd.get(), wire.data(), wire.size());
    if (!s.ok()) {
      // Peer went away; the reader will observe the shutdown and finish.
      conn->closed.store(true, std::memory_order_relaxed);
      ShutdownFd(conn->fd.get());
      return;
    }
  }
  if (m_send_seconds_ != nullptr) {
    m_send_seconds_->Record(send_timer.ElapsedSeconds());
  }
  counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (m_frames_sent_ != nullptr) m_frames_sent_->Increment();
}

}  // namespace fast::net
