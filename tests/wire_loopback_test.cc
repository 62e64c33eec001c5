// End-to-end loopback tests for the wire transport (net/wire_server.h +
// net/wire_client.h): a WireServer over a real MatchService/TenantRouter on
// an ephemeral port, exercised by WireClients over actual sockets. Covers
// the protocol conversation (HELLO/ACK, SUBMIT/RESULT), embedding streaming,
// both flavours of PUSHBACK flow control, per-request errors that keep the
// stream alive, framing violations that don't, and concurrent submission —
// the paths the TSan CI job needs to see under instrumentation.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "service/match_service.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"
#include "tests/trace_checks.h"

namespace fast::net {
namespace {

using fast::testing::BruteForceCount;
using fast::testing::ExpectWallSpans;
using fast::testing::PaperDataGraph;
using fast::testing::PaperQuery;

service::ServiceOptions BaseOptions() {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  return options;
}

std::unique_ptr<WireClient> MustConnect(const WireServer& server) {
  auto client = WireClient::Connect("127.0.0.1", server.port());
  FAST_CHECK(client.ok());
  return std::move(*client);
}

TEST(WireLoopback, CallRoundTrip) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  EXPECT_EQ(client->max_inflight(), 64u);  // HELLO_ACK advertised the window

  auto resp = client->Call(PaperQuery());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->kind, WireResponse::Kind::kResult);
  EXPECT_TRUE(resp->status.ok()) << resp->status.ToString();
  EXPECT_EQ(resp->result.embeddings,
            BruteForceCount(PaperQuery(), PaperDataGraph()));
  EXPECT_GE(resp->result.graph_epoch, 1u);
  EXPECT_GT(resp->result.total_seconds, 0.0);

  client->Close();
  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.submits, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(WireLoopback, SampledEmbeddingsReturnedWithoutStreamingFlag) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  WireSubmitArgs args;
  args.store_limit = 10;
  auto resp = client->Call(PaperQuery(), std::move(args));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->kind, WireResponse::Kind::kResult);
  const std::uint64_t expected = BruteForceCount(PaperQuery(), PaperDataGraph());
  std::size_t rows = 0;
  for (const auto& batch : resp->embeddings) {
    EXPECT_EQ(batch.width, PaperQuery().NumVertices());
    rows += batch.rows();
  }
  EXPECT_EQ(rows, expected);  // expected < store_limit, so all of them
}

TEST(WireLoopback, StreamedEmbeddingsBoundedByStoreLimit) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServerOptions wopts;
  wopts.stream_rows_per_frame = 1;  // force one frame per row
  WireServer server(&svc, wopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  WireSubmitArgs args;
  args.store_limit = 1;
  args.stream_embeddings = true;
  auto resp = client->Call(PaperQuery(), std::move(args));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->kind, WireResponse::Kind::kResult);
  // The count is exact even though only store_limit rows streamed back.
  EXPECT_EQ(resp->result.embeddings,
            BruteForceCount(PaperQuery(), PaperDataGraph()));
  std::size_t rows = 0;
  for (const auto& batch : resp->embeddings) rows += batch.rows();
  EXPECT_EQ(rows, 1u);
}

TEST(WireLoopback, DeadlineRidesTheResultFrame) {
  service::ServiceOptions options = BaseOptions();
  options.num_workers = 1;
  service::MatchService svc(PaperDataGraph(), options);
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // Occupy the single worker so the deadlined request queues long enough.
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    auto id = client->SubmitAsync(PaperQuery(), WireSubmitArgs{},
                                  [&done](WireResponse) { ++done; });
    ASSERT_TRUE(id.ok());
  }
  WireSubmitArgs args;
  args.deadline_us = 1;  // 1 µs: expired by the time a worker dequeues it
  auto resp = client->Call(PaperQuery(), std::move(args));
  ASSERT_TRUE(resp.ok());
  // DEADLINE_EXCEEDED is an *execution* outcome: a RESULT frame, not ERROR.
  EXPECT_EQ(resp->kind, WireResponse::Kind::kResult);
  EXPECT_EQ(resp->status.code(), StatusCode::kDeadlineExceeded);
}

TEST(WireLoopback, QueueFullAnswersPushbackNotDisconnect) {
  service::ServiceOptions options = BaseOptions();
  options.num_workers = 1;
  options.queue_capacity = 1;
  service::MatchService svc(PaperDataGraph(), options);
  WireServerOptions wopts;
  wopts.max_inflight_per_conn = 0;  // unlimited: only the queue pushes back
  WireServer server(&svc, wopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  constexpr int kBurst = 100;
  std::atomic<int> pushback{0}, result{0}, transport{0}, other{0};
  std::atomic<int> done{0};
  for (int i = 0; i < kBurst; ++i) {
    auto id = client->SubmitAsync(
        PaperQuery(), WireSubmitArgs{}, [&](WireResponse resp) {
          switch (resp.kind) {
            case WireResponse::Kind::kResult:
              ++result;
              break;
            case WireResponse::Kind::kPushback:
              EXPECT_EQ(resp.pushback_flags & kFlagConnLimit, 0);
              EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
              ++pushback;
              break;
            case WireResponse::Kind::kTransport:
              ++transport;
              break;
            default:
              ++other;
          }
          ++done;
        });
    ASSERT_TRUE(id.ok());
  }
  while (done.load() < kBurst) std::this_thread::yield();

  // A 100-deep burst into a queue of 1 must overflow; overload answers with
  // PUSHBACK frames on a connection that stays healthy end to end.
  EXPECT_GT(pushback.load(), 0);
  EXPECT_GT(result.load(), 0);
  EXPECT_EQ(transport.load(), 0);
  EXPECT_EQ(other.load(), 0);
  auto after = client->Call(PaperQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->kind, WireResponse::Kind::kResult);
  EXPECT_EQ(server.stats().connections_closed, 0u);
  EXPECT_GT(server.stats().pushback_queue, 0u);
}

TEST(WireLoopback, ConnectionWindowPushbackCarriesConnLimitFlag) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServerOptions wopts;
  wopts.max_inflight_per_conn = 1;
  WireServer server(&svc, wopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  EXPECT_EQ(client->max_inflight(), 1u);

  constexpr int kBurst = 100;
  std::atomic<int> conn_pushback{0};
  std::atomic<int> done{0};
  for (int i = 0; i < kBurst; ++i) {
    auto id = client->SubmitAsync(
        PaperQuery(), WireSubmitArgs{}, [&](WireResponse resp) {
          if (resp.kind == WireResponse::Kind::kPushback &&
              (resp.pushback_flags & kFlagConnLimit) != 0) {
            ++conn_pushback;
          }
          ++done;
        });
    ASSERT_TRUE(id.ok());
  }
  while (done.load() < kBurst) std::this_thread::yield();
  EXPECT_GT(conn_pushback.load(), 0);
  EXPECT_GT(server.stats().pushback_conn, 0u);
}

TEST(WireLoopback, UnknownTenantIsAnErrorFrameNotAClosedStream) {
  tenant::RouterOptions ropts;
  ropts.num_workers = 2;
  tenant::TenantRouter router(ropts);
  ASSERT_TRUE(
      router.AddTenant("a", PaperDataGraph(), tenant::TenantOptions{}).ok());
  WireServer server(&router, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  WireSubmitArgs bogus;
  bogus.tenant = "nope";
  auto resp = client->Call(PaperQuery(), std::move(bogus));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->kind, WireResponse::Kind::kError);
  EXPECT_EQ(resp->status.code(), StatusCode::kNotFound);

  // The same connection still serves the tenant that exists.
  WireSubmitArgs good;
  good.tenant = "a";
  auto ok = client->Call(PaperQuery(), std::move(good));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->kind, WireResponse::Kind::kResult);
  EXPECT_TRUE(ok->status.ok());
  EXPECT_GE(server.stats().errors_sent, 1u);
  router.Shutdown();
}

TEST(WireLoopback, TenantHeaderRoutesToTheRightGraph) {
  tenant::RouterOptions ropts;
  ropts.num_workers = 2;
  tenant::TenantRouter router(ropts);
  ASSERT_TRUE(
      router.AddTenant("paper", PaperDataGraph(), tenant::TenantOptions{}).ok());
  // A second tenant whose graph has none of the paper labels: zero matches.
  GraphBuilder b;
  b.AddVertex(9);
  b.AddVertex(9);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  ASSERT_TRUE(router
                  .AddTenant("empty", std::move(b).Build().value(),
                             tenant::TenantOptions{})
                  .ok());
  WireServer server(&router, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  WireSubmitArgs paper;
  paper.tenant = "paper";
  auto on_paper = client->Call(PaperQuery(), std::move(paper));
  ASSERT_TRUE(on_paper.ok());
  EXPECT_EQ(on_paper->result.embeddings,
            BruteForceCount(PaperQuery(), PaperDataGraph()));

  WireSubmitArgs empty;
  empty.tenant = "empty";
  auto on_empty = client->Call(PaperQuery(), std::move(empty));
  ASSERT_TRUE(on_empty.ok());
  EXPECT_EQ(on_empty->kind, WireResponse::Kind::kResult);
  EXPECT_TRUE(on_empty->status.ok());
  EXPECT_EQ(on_empty->result.embeddings, 0u);
  router.Shutdown();
}

TEST(WireLoopback, PingPong) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST(WireLoopback, GarbageBytesCloseOnlyThatConnection) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto healthy = MustConnect(server);

  auto raw = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  const std::uint8_t garbage[64] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(SendAll(raw->get(), garbage, sizeof(garbage)).ok());
  // The server must answer a framing violation by closing: read to EOF.
  std::uint8_t buf[256];
  for (;;) {
    auto n = RecvSome(raw->get(), buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
  }
  EXPECT_GE(server.stats().protocol_errors, 1u);

  // The healthy connection never noticed.
  auto resp = healthy->Call(PaperQuery());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->kind, WireResponse::Kind::kResult);
}

TEST(WireLoopback, ConcurrentSubmissionsAcrossConnections) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = MustConnect(server);
      const std::uint64_t expected =
          BruteForceCount(PaperQuery(), PaperDataGraph());
      for (int i = 0; i < kPerClient; ++i) {
        auto resp = client->Call(PaperQuery());
        if (resp.ok() && resp->kind == WireResponse::Kind::kResult &&
            resp->status.ok() && resp->result.embeddings == expected) {
          ++ok_count;
        }
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submits, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(WireLoopback, CloseFailsEveryOutstandingHandlerExactlyOnce) {
  service::ServiceOptions options = BaseOptions();
  options.num_workers = 1;
  service::MatchService svc(PaperDataGraph(), options);
  WireServerOptions wopts;
  wopts.max_inflight_per_conn = 0;
  WireServer server(&svc, wopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  constexpr int kBurst = 50;
  std::atomic<int> signals{0};
  for (int i = 0; i < kBurst; ++i) {
    auto id = client->SubmitAsync(PaperQuery(), WireSubmitArgs{},
                                  [&signals](WireResponse) { ++signals; });
    ASSERT_TRUE(id.ok());
  }
  client->Close();  // joins the reader, fails whatever had no terminal frame
  EXPECT_EQ(signals.load(), kBurst);
  EXPECT_EQ(client->inflight(), 0u);
}

TEST(WireLoopback, WireTracesCoverRecvThroughRemap) {
  service::MatchService svc(PaperDataGraph(), BaseOptions());
  WireServer server(&svc, WireServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Call(PaperQuery()).ok());
  }
  client->Close();
  server.Shutdown();

  const auto traces = svc.recent_traces();
  ASSERT_GE(traces.size(), 5u);
  for (const auto& t : traces) {
    ASSERT_FALSE(t->spans.empty());
    // Wire-anchored: the trace starts with the frame's recv span, then
    // decode, and the wall spans run in order through remap within the
    // end-to-end latency. (These requests finish in ~15µs, so a coverage
    // ratio would fail on one preemption; the >= 0.9 coverage gate runs in
    // bench_wire at realistic request sizes.)
    EXPECT_EQ(t->spans[0].span, obs::Span::kRecv) << t->Summary();
    ASSERT_GE(t->spans.size(), 2u);
    EXPECT_EQ(t->spans[1].span, obs::Span::kDecode) << t->Summary();
    ExpectWallSpans(*t, {obs::Span::kRecv, obs::Span::kDecode, obs::Span::kAdmit,
                         obs::Span::kQueue, obs::Span::kSnapshot,
                         obs::Span::kPlanLookup, obs::Span::kMatch,
                         obs::Span::kRemap});
  }
}

}  // namespace
}  // namespace fast::net
