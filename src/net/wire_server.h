#ifndef FAST_NET_WIRE_SERVER_H_
#define FAST_NET_WIRE_SERVER_H_

// TCP front end over any service::Frontend (TenantRouter, or MatchService —
// the router with one tenant).
//
// One accept thread plus one reader thread per connection. A SUBMIT frame is
// decoded into a QueryGraph and submitted in callback mode: the completion
// callback runs on the service worker thread that finished the request and
// writes the EMBEDDING/RESULT frames back under the connection's write lock,
// so responses from concurrent requests interleave at frame granularity and
// the reader thread never blocks on a slow query.
//
// Flow control maps the service's bounded admission queue onto the protocol:
//   - service RESOURCE_EXHAUSTED (queue full / tenant quota) → PUSHBACK
//   - connection in-flight window full                       → PUSHBACK
//                                                              (kFlagConnLimit)
// Both leave the connection healthy — pushback is a frame, not a dropped
// byte or a reset. Per-request failures (unknown tenant, malformed query,
// deadline) come back as ERROR/RESULT frames; only framing-level protocol
// violations close the connection.
//
// Tracing: when enabled, the server starts the request trace itself —
// anchored at frame receive, carrying the recv (frame assembly) and decode
// spans — and hands it to the service via RequestOptions::resume_trace, so
// one trace tiles the whole wire path: recv → decode → admit → queue → … →
// remap. Encode and send happen after the service froze the trace, so those
// two spans are recorded into the registry histograms
// (fast_span_encode_seconds / fast_span_send_seconds) directly.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire_format.h"
#include "obs/metrics.h"
#include "service/frontend.h"

namespace fast::net {

struct WireServerOptions {
  WireServerOptions() = default;

  std::string host = "127.0.0.1";
  // 0 = pick an ephemeral port (read it back via port() after Start()).
  std::uint16_t port = 0;
  // Per-connection in-flight window advertised in HELLO_ACK; submits beyond
  // it get PUSHBACK(kFlagConnLimit). 0 = unlimited.
  std::uint32_t max_inflight_per_conn = 64;
  // Frame-decoder body bound; larger inbound frames poison the connection.
  std::size_t max_body = kDefaultMaxBody;
  // Streamed embeddings are batched up to this many rows per EMBEDDING frame.
  std::size_t stream_rows_per_frame = 256;
  // Registry for wire counters and the encode/send span histograms. Null
  // disables registry reporting.
  obs::MetricsRegistry* metrics = nullptr;
  // Start wire-anchored request traces (resume_trace). The frontend folds
  // them into its rings only if its own tracing is on too.
  bool tracing = true;
};
static_assert(!std::is_aggregate_v<WireServerOptions>,
              "WireServerOptions must not be positionally brace-initializable");

struct WireServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t submits = 0;
  std::uint64_t pushback_queue = 0;   // service admission rejected
  std::uint64_t pushback_conn = 0;    // connection window full
  std::uint64_t errors_sent = 0;      // per-request ERROR frames
  std::uint64_t protocol_errors = 0;  // framing violations (connection closed)
};

class WireServer {
 public:
  // `frontend` must outlive the server. Session keys on SUBMIT frames are
  // passed through as-is (TenantRouter resolves them as tenant ids;
  // MatchService ignores them).
  WireServer(service::Frontend* frontend, WireServerOptions options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  // Binds, listens, and starts the accept thread.
  Status Start();

  // The bound port (valid after Start()).
  std::uint16_t port() const { return port_; }

  // Stops accepting, unblocks every connection reader, joins all threads.
  // In-flight requests already inside the frontend still complete; their
  // completion callbacks find the connection closed and drop the frames.
  // Idempotent; also run by the destructor. Does NOT shut the frontend down.
  void Shutdown();

  WireServerStats stats() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                   double assembly_seconds);
  void HandleSubmit(const std::shared_ptr<Connection>& conn, Frame frame,
                    double assembly_seconds);
  // Encodes and writes one frame under the connection's write lock,
  // recording the encode/send registry spans. Closes the connection's write
  // side on error.
  void SendFrame(const std::shared_ptr<Connection>& conn,
                 const FrameHeader& header,
                 std::span<const std::uint8_t> payload);

  service::Frontend* const frontend_;
  const WireServerOptions options_;
  std::uint16_t port_ = 0;

  ScopedFd listener_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  // Reader threads live here until Shutdown joins them. Connections
  // themselves are shared_ptr-held by completion callbacks in flight.
  std::vector<std::shared_ptr<Connection>> conns_;

  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> submits{0};
    std::atomic<std::uint64_t> pushback_queue{0};
    std::atomic<std::uint64_t> pushback_conn{0};
    std::atomic<std::uint64_t> errors_sent{0};
    std::atomic<std::uint64_t> protocol_errors{0};
  };
  Counters counters_;

  // Registry bindings (null without a registry).
  obs::Counter* m_frames_received_ = nullptr;
  obs::Counter* m_frames_sent_ = nullptr;
  obs::Counter* m_pushback_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  obs::Histogram* m_encode_seconds_ = nullptr;
  obs::Histogram* m_send_seconds_ = nullptr;
};

}  // namespace fast::net

#endif  // FAST_NET_WIRE_SERVER_H_
