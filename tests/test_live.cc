// End-to-end tests for the live (real-TCP, loopback) prototype.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <variant>
#include <vector>

#include "live/live_proxy.h"
#include "live/live_server.h"
#include "live/socket.h"
#include "net/wire.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"

namespace webcc::live {
namespace {

using namespace std::chrono_literals;

// The server pushes invalidations asynchronously; poll briefly for them.
template <typename Predicate>
bool WaitFor(Predicate predicate, std::chrono::milliseconds budget = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

// --- client id helpers ------------------------------------------------------------

TEST(ClientId, MakeAndParse) {
  const std::string id = MakeClientId("alice", 4321);
  EXPECT_EQ(id, "alice@4321");
  const auto port = ParseClientPort(id);
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 4321);
}

TEST(ClientId, ParseRejectsMissingOrBadPort) {
  EXPECT_FALSE(ParseClientPort("alice").has_value());
  EXPECT_FALSE(ParseClientPort("alice@").has_value());
  EXPECT_FALSE(ParseClientPort("alice@notaport").has_value());
  EXPECT_FALSE(ParseClientPort("alice@99999999").has_value());
}

// --- raw sockets -------------------------------------------------------------------

TEST(Socket, ListenerPicksEphemeralPort) {
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(listener.port(), 0);
  listener.Shutdown();
}

TEST(Socket, ConnectToClosedPortFails) {
  // Bind + immediately close to find a (very likely) dead port.
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.Shutdown();
  }
  EXPECT_FALSE(Connect(dead_port).valid());
}

TEST(Socket, ConnectToClosedPortClassifiesAsPeerReset) {
  // The refusal is classified inside Connect, before its socket is closed,
  // and carried on the returned stream.
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    ASSERT_TRUE(listener.valid());
    dead_port = listener.port();
  }  // destroyed: nothing listens there now
  const TcpStream stream = Connect(dead_port);
  EXPECT_FALSE(stream.valid());
  EXPECT_EQ(stream.last_error(), IoError::kPeerReset);
}

TEST(Socket, EchoRoundTrip) {
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  std::thread echo([&listener] {
    TcpStream stream = listener.Accept();
    if (!stream.valid()) return;
    const auto line = stream.ReadLine();
    if (line.has_value()) stream.WriteAll("echo:" + *line);
  });
  const auto reply = Exchange(listener.port(), "hello\n");
  echo.join();
  listener.Shutdown();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "echo:hello\n");
}

TEST(Socket, WriteAllCompletesLargeFrameAcrossShortWrites) {
  // A frame much larger than the socket buffers forces send() to accept it
  // in pieces; WriteAll must deliver every byte of the frame anyway. The
  // 16 MB buffer is cut into 64 KiB lines so that the reader stays under
  // ReadLine's line cap.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  std::size_t received = 0;
  std::thread reader([&listener, &received] {
    TcpStream stream = listener.Accept();
    if (!stream.valid()) return;
    while (const auto line = stream.ReadLine()) received += line->size();
  });
  TcpStream writer = Connect(listener.port());
  ASSERT_TRUE(writer.valid());
  std::string frame(16u << 20, 'x');
  for (std::size_t i = (64u << 10) - 1; i < frame.size(); i += 64u << 10) {
    frame[i] = '\n';
  }
  EXPECT_TRUE(writer.WriteAll(frame));
  EXPECT_EQ(writer.last_error(), IoError::kNone);
  writer = TcpStream(Fd());  // orderly close ends the reader's loop
  reader.join();
  listener.Shutdown();
  EXPECT_EQ(received, frame.size());
}

TEST(Socket, WriteTimeoutSurfacesAsTimeout) {
  // The peer accepts but never drains: once both socket buffers fill, the
  // configured SO_SNDTIMEO expires and WriteAll reports a timeout instead
  // of blocking the handler thread forever.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  TcpStream writer = Connect(listener.port());
  ASSERT_TRUE(writer.valid());
  TcpStream idle = listener.Accept();
  ASSERT_TRUE(idle.valid());
  writer.SetWriteTimeout(100);
  const std::string frame(64u << 20, 'x');
  EXPECT_FALSE(writer.WriteAll(frame));
  EXPECT_EQ(writer.last_error(), IoError::kTimeout);
  listener.Shutdown();
}

TEST(Socket, PeerResetSurfacesAsPeerReset) {
  // The peer closes without reading; continuing to write must surface the
  // reset (EPIPE/ECONNRESET) rather than a generic failure, so callers can
  // tell a vanished proxy from a stalled one.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  TcpStream writer = Connect(listener.port());
  ASSERT_TRUE(writer.valid());
  {
    TcpStream victim = listener.Accept();  // accepted, then dropped
  }
  std::string frame(64u << 10, 'x');
  frame.back() = '\n';
  bool ok = true;
  // The first write may land in the kernel buffer before the RST arrives;
  // keep writing until the failure shows.
  for (int i = 0; i < 1000 && ok; ++i) ok = writer.WriteAll(frame);
  EXPECT_FALSE(ok);
  EXPECT_EQ(writer.last_error(), IoError::kPeerReset);
  listener.Shutdown();
}

TEST(Socket, ReadTimeoutKeepsPartialFrameAndResumes) {
  // A stalling peer sends half a line and goes quiet: the read times out
  // (kTimeout, no line) but the prefix stays buffered, so when the peer
  // wakes up the next ReadLine completes the original frame intact.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  TcpStream writer = Connect(listener.port());
  ASSERT_TRUE(writer.valid());
  TcpStream reader = listener.Accept();
  ASSERT_TRUE(reader.valid());
  reader.SetReadTimeout(100);

  ASSERT_TRUE(writer.WriteAll("INVALIDATE /inde"));  // stalls mid-frame
  EXPECT_FALSE(reader.ReadLine().has_value());
  EXPECT_EQ(reader.last_error(), IoError::kTimeout);

  ASSERT_TRUE(writer.WriteAll("x.html\n"));  // peer resumes
  const auto line = reader.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "INVALIDATE /index.html\n");
  EXPECT_EQ(reader.last_error(), IoError::kNone);
  listener.Shutdown();
}

TEST(Socket, ReadTimeoutNeverSurfacesPartialFrameAtEof) {
  // Orderly EOF after a resumed stall: the unterminated trailing line is
  // delivered exactly once, with kNone — never as a timeout's side effect.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  {
    TcpStream writer = Connect(listener.port());
    ASSERT_TRUE(writer.valid());
    TcpStream reader = listener.Accept();
    ASSERT_TRUE(reader.valid());
    reader.SetReadTimeout(100);
    ASSERT_TRUE(writer.WriteAll("tail-without-newline"));
    EXPECT_FALSE(reader.ReadLine().has_value());  // stall: buffered, no line
    EXPECT_EQ(reader.last_error(), IoError::kTimeout);
    writer = TcpStream(Fd());  // orderly close
    const auto line = reader.ReadLine();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "tail-without-newline");
    EXPECT_EQ(reader.last_error(), IoError::kNone);
  }
  listener.Shutdown();
}

TEST(Socket, ReadFromResetPeerClassifiesAsPeerReset) {
  // The peer closes with data we sent still unread, which makes TCP emit a
  // reset instead of a FIN; the read must classify it, not invent a line.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  TcpStream reader = Connect(listener.port());
  ASSERT_TRUE(reader.valid());
  ASSERT_TRUE(reader.WriteAll("unread\n"));
  {
    TcpStream victim = listener.Accept();  // closes without reading -> RST
    ASSERT_TRUE(victim.valid());
  }
  // The RST may take a moment to arrive; a retry loop keeps this robust.
  IoError error = IoError::kNone;
  for (int i = 0; i < 100; ++i) {
    if (reader.ReadLine().has_value()) continue;
    error = reader.last_error();
    if (error == IoError::kPeerReset) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(error, IoError::kPeerReset);
  listener.Shutdown();
}

TEST(Socket, ReadLineFailsAtTheLineCapWithoutGrowingPastIt) {
  // A peer streams 2 MiB and never sends '\n'. The read must fail once the
  // buffer holds kMaxLineBytes instead of buffering until the timeout, and
  // retrying must not read further.
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  TcpStream writer = Connect(listener.port());
  ASSERT_TRUE(writer.valid());
  TcpStream reader = listener.Accept();
  ASSERT_TRUE(reader.valid());
  reader.SetReadTimeout(5000);
  writer.SetWriteTimeout(5000);
  std::thread peer([&writer] {
    writer.WriteAll(std::string(2 * TcpStream::kMaxLineBytes, 'x'));
  });

  EXPECT_FALSE(reader.ReadLine().has_value());
  EXPECT_EQ(reader.last_error(), IoError::kOther);
  EXPECT_EQ(reader.buffered_bytes(), TcpStream::kMaxLineBytes);
  EXPECT_FALSE(reader.ReadLine().has_value());
  EXPECT_EQ(reader.last_error(), IoError::kOther);
  EXPECT_EQ(reader.buffered_bytes(), TcpStream::kMaxLineBytes);

  reader = TcpStream(Fd());  // close: the blocked writer fails and returns
  peer.join();
  listener.Shutdown();
}

TEST(LivePush, RefusedPushIsCountedAndNeverRetried) {
  // A proxy that died takes its callback port with it: the INVALIDATE push
  // is refused, counted as such, and not retried — the proxy's restart path
  // (mark-all-questionable) covers consistency, so retrying buys nothing.
  obs::BufferTraceSink sink;
  LiveServer::Options options;
  options.protocol = core::Protocol::kInvalidation;
  options.trace_sink = &sink;
  LiveServer server(options);
  ASSERT_TRUE(server.Start());
  server.AddDocument("/index.html", 4096);

  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    ASSERT_TRUE(listener.valid());
    dead_port = listener.port();
  }
  net::Request request;
  request.type = net::MessageType::kGet;
  request.url = "/index.html";
  request.client_id = MakeClientId("ghost", dead_port);
  ASSERT_TRUE(Exchange(server.port(), net::EncodeLine(request)).has_value());

  EXPECT_EQ(server.TouchDocument("/index.html"), 0u);
  EXPECT_EQ(server.pushes_refused(), 1u);
  EXPECT_EQ(server.pushes_timed_out(), 0u);
  EXPECT_EQ(server.push_retries(), 0u);  // refused != stalled: no retry
  EXPECT_EQ(server.invalidations_pushed(), 0u);
  // The give-up is traced as a refusal, distinct from a timeout.
  EXPECT_NE(sink.Text().find("invalidate_refused"), std::string::npos);
  server.Stop();
}

TEST(LivePush, EveryFrameForOneProxyTravelsOnOneConnection) {
  // A fake proxy owns 20 registered client ids. The write owes each of them
  // an INVB frame, and all 20 lines must arrive on one accepted connection.
  TcpListener fake_proxy(0);
  ASSERT_TRUE(fake_proxy.valid());
  LiveServer server({});
  ASSERT_TRUE(server.Start());
  server.AddDocument("/index.html", 4096);
  for (int i = 0; i < 20; ++i) {
    net::Request request;
    request.type = net::MessageType::kGet;
    request.url = "/index.html";
    request.client_id =
        MakeClientId("client-" + std::to_string(i), fake_proxy.port());
    ASSERT_TRUE(Exchange(server.port(), net::EncodeLine(request)).has_value());
  }
  EXPECT_EQ(server.TouchDocument("/index.html"), 20u);
  EXPECT_EQ(server.invalidation_frames_pushed(), 20u);
  server.Stop();

  // Every push connection completed its handshake before TouchDocument
  // returned, so a sentinel connected now queues behind all of them.
  TcpStream sentinel = Connect(fake_proxy.port());
  ASSERT_TRUE(sentinel.WriteAll("SENTINEL\n"));
  int connections = 0;
  int lines = 0;
  while (true) {
    TcpStream stream = fake_proxy.Accept();
    ASSERT_TRUE(stream.valid());
    stream.SetReadTimeout(2000);
    std::optional<std::string> line = stream.ReadLine();
    ASSERT_TRUE(line.has_value());
    if (*line == "SENTINEL\n") break;
    ++connections;
    for (; line.has_value(); line = stream.ReadLine()) {
      const auto message = net::DecodeLine(*line);
      ASSERT_TRUE(message.has_value()) << *line;
      EXPECT_TRUE(std::holds_alternative<net::BatchInvalidation>(*message));
      ++lines;
    }
    EXPECT_EQ(stream.last_error(), IoError::kNone);  // the server closed it
  }
  EXPECT_EQ(connections, 1);
  EXPECT_EQ(lines, 20);
}

// --- server + proxy fixtures ----------------------------------------------------------

class LiveFixture : public ::testing::Test {
 protected:
  void StartAll(core::Protocol protocol, core::LeaseConfig lease = {},
                core::AdaptiveTtlConfig ttl = {}) {
    LiveServer::Options server_options;
    server_options.protocol = protocol;
    server_options.lease = lease;
    server_ = std::make_unique<LiveServer>(server_options);
    ASSERT_TRUE(server_->Start());
    server_->AddDocument("/index.html", 4096);
    server_->AddDocument("/data.bin", 1 << 20);

    LiveProxy::Options proxy_options;
    proxy_options.server_port = server_->port();
    proxy_options.protocol = protocol;
    proxy_options.ttl = ttl;
    proxy_ = std::make_unique<LiveProxy>(proxy_options);
    ASSERT_TRUE(proxy_->Start());
  }

  void TearDown() override {
    if (proxy_) proxy_->Stop();
    if (server_) server_->Stop();
  }

  std::unique_ptr<LiveServer> server_;
  std::unique_ptr<LiveProxy> proxy_;
};

TEST_F(LiveFixture, ColdFetchThenLocalHit) {
  StartAll(core::Protocol::kInvalidation);
  const auto first = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.local_hit);
  EXPECT_EQ(first.size_bytes, 4096u);
  EXPECT_EQ(first.version, 1u);

  const auto second = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(second.ok);
  EXPECT_TRUE(second.local_hit);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(LiveFixture, PerClientNamespacing) {
  StartAll(core::Protocol::kInvalidation);
  proxy_->Fetch("alice", "/index.html");
  const auto bob = proxy_->Fetch("bob", "/index.html");
  EXPECT_FALSE(bob.local_hit);  // bob's namespace is separate
  EXPECT_EQ(server_->requests_served(), 2u);
  EXPECT_EQ(proxy_->cached_entries(), 2u);
}

TEST_F(LiveFixture, UnknownUrlFails) {
  StartAll(core::Protocol::kInvalidation);
  EXPECT_FALSE(proxy_->Fetch("alice", "/missing").ok);
}

TEST_F(LiveFixture, TouchPushesInvalidationAndNextFetchRefetches) {
  StartAll(core::Protocol::kInvalidation);
  proxy_->Fetch("alice", "/index.html");
  ASSERT_EQ(proxy_->cached_entries(), 1u);

  EXPECT_EQ(server_->TouchDocument("/index.html"), 1u);
  ASSERT_TRUE(WaitFor([&] { return proxy_->invalidations_received() == 1; }));
  EXPECT_EQ(proxy_->cached_entries(), 0u);  // copy deleted, space freed

  const auto refetch = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(refetch.ok);
  EXPECT_FALSE(refetch.local_hit);
  EXPECT_EQ(refetch.version, 2u);
}

TEST_F(LiveFixture, SiteForgottenAfterInvalidation) {
  StartAll(core::Protocol::kInvalidation);
  proxy_->Fetch("alice", "/index.html");
  server_->TouchDocument("/index.html");
  ASSERT_TRUE(WaitFor([&] { return proxy_->invalidations_received() == 1; }));
  // alice never re-requested: the second touch pushes nothing.
  EXPECT_EQ(server_->TouchDocument("/index.html"), 0u);
}

TEST_F(LiveFixture, PollingValidatesEveryFetch) {
  StartAll(core::Protocol::kPollEveryTime);
  proxy_->Fetch("alice", "/index.html");
  const auto second = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(second.ok);
  EXPECT_FALSE(second.local_hit);
  EXPECT_TRUE(second.validated);  // 304, not a transfer
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(LiveFixture, PollingSeesNewVersionImmediately) {
  StartAll(core::Protocol::kPollEveryTime);
  proxy_->Fetch("alice", "/index.html");
  server_->TouchDocument("/index.html");
  const auto after = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(after.ok);
  EXPECT_FALSE(after.validated);  // changed: full 200
  EXPECT_EQ(after.version, 2u);
}

TEST_F(LiveFixture, AdaptiveTtlServesLocallyWithinTtl) {
  StartAll(core::Protocol::kAdaptiveTtl);
  // Document created at server start: age is tiny, TTL = min_ttl (1 min),
  // so an immediate re-fetch is a local hit.
  proxy_->Fetch("alice", "/index.html");
  const auto second = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(second.local_hit);
  // ...even after a modification: the weak protocol serves stale.
  server_->TouchDocument("/index.html");
  const auto stale = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(stale.local_hit);
  EXPECT_EQ(stale.version, 1u);  // stale!
}

TEST_F(LiveFixture, ServerCrashRecoveryMarksQuestionable) {
  StartAll(core::Protocol::kInvalidation);
  proxy_->Fetch("alice", "/index.html");
  server_->CrashTables();
  // A modification during the outage window goes unnoticed...
  server_->TouchDocument("/index.html");
  EXPECT_EQ(proxy_->invalidations_received(), 0u);
  // ...until recovery broadcasts a server-address invalidation.
  EXPECT_EQ(server_->Recover(), 1u);
  ASSERT_TRUE(
      WaitFor([&] { return proxy_->server_notices_received() == 1; }));
  // The questionable copy revalidates and picks up the new version.
  const auto after = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(after.ok);
  EXPECT_FALSE(after.local_hit);
  EXPECT_EQ(after.version, 2u);
}

TEST_F(LiveFixture, ProxyRecoveryRevalidatesEverything) {
  StartAll(core::Protocol::kInvalidation);
  proxy_->Fetch("alice", "/index.html");
  proxy_->SimulateRecovery();
  const auto after = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(after.ok);
  EXPECT_FALSE(after.local_hit);
  EXPECT_TRUE(after.validated);  // unchanged: 304 renewed it
  const auto then = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(then.local_hit);  // back to normal service
}

TEST_F(LiveFixture, TwoTierLeaseRegistersOnSecondRequest) {
  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kTwoTier;
  lease.duration = kHour;
  lease.short_duration = 0;
  StartAll(core::Protocol::kInvalidation, lease);

  proxy_->Fetch("alice", "/index.html");
  // One-time viewer: the zero lease means no invalidation on modification.
  EXPECT_EQ(server_->TouchDocument("/index.html"), 0u);

  // Second request: IMS (lease expired) earns the regular lease.
  const auto second = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(second.ok);
  EXPECT_FALSE(second.local_hit);
  // Now alice is registered: the next touch invalidates her.
  EXPECT_EQ(server_->TouchDocument("/index.html"), 1u);
}

TEST_F(LiveFixture, ManyClientsFanOut) {
  StartAll(core::Protocol::kInvalidation);
  for (int i = 0; i < 20; ++i) {
    proxy_->Fetch("client-" + std::to_string(i), "/data.bin");
  }
  EXPECT_EQ(server_->TouchDocument("/data.bin"), 20u);
  EXPECT_TRUE(WaitFor([&] { return proxy_->invalidations_received() == 20; }));
  EXPECT_EQ(proxy_->cached_entries(), 0u);
}

TEST_F(LiveFixture, ConcurrentFetchesAreSafe) {
  StartAll(core::Protocol::kInvalidation);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < 25; ++i) {
        const auto result =
            proxy_->Fetch("thread-" + std::to_string(t), "/index.html");
        if (!result.ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(proxy_->cached_entries(), 8u);
}

TEST_F(LiveFixture, PcvPiggybackDropsInvalidCopies) {
  // Zero TTL: every cached entry is immediately a piggyback candidate.
  core::AdaptiveTtlConfig ttl;
  ttl.factor = 0.0;
  ttl.min_ttl = 0;
  StartAll(core::Protocol::kPiggybackValidation, {}, ttl);

  proxy_->Fetch("alice", "/index.html");
  server_->TouchDocument("/index.html");  // weak: no push happens
  EXPECT_EQ(proxy_->invalidations_received(), 0u);
  ASSERT_EQ(proxy_->cached_entries(), 1u);

  // The unrelated fetch piggybacks the expired /index.html entry; the
  // server's bulk validation finds it invalid and the proxy drops it.
  const auto other = proxy_->Fetch("alice", "/data.bin");
  EXPECT_TRUE(other.ok);
  EXPECT_EQ(proxy_->pcv_invalidated(), 1u);
  EXPECT_EQ(proxy_->cached_entries(), 1u);  // only /data.bin remains

  const auto refetch = proxy_->Fetch("alice", "/index.html");
  EXPECT_TRUE(refetch.ok);
  EXPECT_FALSE(refetch.local_hit);
  EXPECT_EQ(refetch.version, 2u);
}

TEST_F(LiveFixture, PcvPiggybackRearmsValidCopies) {
  core::AdaptiveTtlConfig ttl;
  ttl.factor = 0.0;
  ttl.min_ttl = 0;
  StartAll(core::Protocol::kPiggybackValidation, {}, ttl);

  proxy_->Fetch("alice", "/index.html");
  // Not modified: the piggybacked validation certifies the copy and re-arms
  // its TTL (still zero here, but the copy survives).
  proxy_->Fetch("alice", "/data.bin");
  EXPECT_EQ(proxy_->pcv_invalidated(), 0u);
  EXPECT_EQ(proxy_->cached_entries(), 2u);
}

TEST_F(LiveFixture, PsiPiggybackPurgesModifiedCopies) {
  StartAll(core::Protocol::kPiggybackInvalidation);

  proxy_->Fetch("alice", "/index.html");
  server_->TouchDocument("/index.html");  // weak: no push happens
  ASSERT_EQ(proxy_->cached_entries(), 1u);

  // The next server contact carries the change list; the stale copy is
  // purged proxy-wide even though the reply is for another document.
  const auto other = proxy_->Fetch("alice", "/data.bin");
  EXPECT_TRUE(other.ok);
  EXPECT_EQ(proxy_->psi_purged(), 1u);
  EXPECT_EQ(proxy_->cached_entries(), 1u);

  const auto refetch = proxy_->Fetch("alice", "/index.html");
  EXPECT_FALSE(refetch.local_hit);
  EXPECT_EQ(refetch.version, 2u);
}

TEST_F(LiveFixture, PsiCursorAdvancesPerContact) {
  StartAll(core::Protocol::kPiggybackInvalidation);
  proxy_->Fetch("alice", "/index.html");
  server_->TouchDocument("/index.html");
  proxy_->Fetch("alice", "/data.bin");  // consumes the notice
  EXPECT_EQ(proxy_->psi_purged(), 1u);
  // The cursor advanced: the same modification is not re-announced.
  proxy_->Fetch("alice", "/data.bin");
  EXPECT_EQ(proxy_->psi_purged(), 1u);
}

TEST(LiveTracing, EmitsServeAndInvalidationEvents) {
  // One sink shared by both ends (they are in-process here); handler
  // threads emit concurrently, which JsonlTraceSink's lock absorbs.
  obs::BufferTraceSink sink;
  LiveServer::Options server_options;
  server_options.trace_sink = &sink;
  LiveServer server(server_options);
  ASSERT_TRUE(server.Start());
  server.AddDocument("/a", 10);

  LiveProxy::Options proxy_options;
  proxy_options.server_port = server.port();
  proxy_options.protocol = core::Protocol::kInvalidation;
  proxy_options.trace_sink = &sink;
  LiveProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start());

  EXPECT_TRUE(proxy.Fetch("alice", "/a").ok);            // transfer
  EXPECT_TRUE(proxy.Fetch("alice", "/a").local_hit);     // local hit
  EXPECT_EQ(server.TouchDocument("/a"), 1u);
  ASSERT_TRUE(WaitFor([&] { return proxy.invalidations_received() == 1; }));
  proxy.Stop();
  server.Stop();

  std::istringstream stream(sink.Text());
  const obs::TraceSummary summary = obs::SummarizeTrace(stream);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.CountOf(obs::EventType::kRequestServed), 2u);
  EXPECT_EQ(summary.CountOf(obs::EventType::kNotify), 1u);
  EXPECT_EQ(summary.CountOf(obs::EventType::kInvalidateGenerated), 1u);
  EXPECT_EQ(summary.CountOf(obs::EventType::kInvalidateDelivered), 1u);
}

TEST(LiveServerStandalone, MalformedLineGetsError) {
  LiveServer server({});
  ASSERT_TRUE(server.Start());
  const auto reply = Exchange(server.port(), "GARBAGE\n");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u);
  server.Stop();
}

TEST(LiveServerStandalone, NotifyLineAnswersCount) {
  LiveServer server({});
  ASSERT_TRUE(server.Start());
  server.AddDocument("/a", 10);
  const auto reply =
      Exchange(server.port(), net::EncodeLine(net::Notify{"/a"}));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK", 0), 0u);
  server.Stop();
}

// --- reactor: hostile peers and persistent connections ---------------------

// Runs `fetch` and returns how long it took.
template <typename Fetch>
std::chrono::milliseconds Timed(Fetch fetch) {
  const auto start = std::chrono::steady_clock::now();
  fetch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

std::optional<net::Reply> ReadReply(TcpStream& stream) {
  const std::optional<std::string> line = stream.ReadLine();
  if (!line.has_value()) return std::nullopt;
  std::optional<net::Message> message = net::DecodeLine(*line);
  if (!message.has_value()) return std::nullopt;
  auto* reply = std::get_if<net::Reply>(&*message);
  if (reply == nullptr) return std::nullopt;
  return std::move(*reply);
}

TEST_F(LiveFixture, HalfLinePeerDoesNotDelayFetch) {
  StartAll(core::Protocol::kInvalidation);
  TcpStream slow = Connect(server_->port());
  ASSERT_TRUE(slow.WriteAll("GET /index.ht"));  // never finishes the line
  const auto took =
      Timed([&] { EXPECT_TRUE(proxy_->Fetch("alice", "/index.html").ok); });
  EXPECT_LT(took, 1s);
}

TEST_F(LiveFixture, ThousandIdleConnectionsDoNotDelayFetch) {
  // Both ends of 1000 connections live in this process.
  rlimit limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &limit), 0);
  const rlim_t wanted = std::min<rlim_t>(limit.rlim_max, 4096);
  if (limit.rlim_cur < wanted) {
    limit.rlim_cur = wanted;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  StartAll(core::Protocol::kInvalidation);
  std::vector<TcpStream> idle;
  for (int i = 0; i < 1000; ++i) {
    idle.push_back(Connect(server_->port()));
    ASSERT_TRUE(idle.back().valid()) << "connection " << i;
  }
  const auto took =
      Timed([&] { EXPECT_TRUE(proxy_->Fetch("alice", "/index.html").ok); });
  EXPECT_LT(took, 1s);
}

TEST_F(LiveFixture, PeerClosingMidFrameLeavesServerServing) {
  StartAll(core::Protocol::kInvalidation);
  {
    TcpStream quitter = Connect(server_->port());
    ASSERT_TRUE(quitter.WriteAll("GET /index.html ali"));
  }  // closed mid-frame
  EXPECT_TRUE(proxy_->Fetch("alice", "/index.html").ok);
  EXPECT_EQ(server_->requests_served(), 1u);  // the cut frame was dropped
}

TEST_F(LiveFixture, PeerResettingMidFrameLeavesServerServing) {
  StartAll(core::Protocol::kInvalidation);
  net::Request request;
  request.type = net::MessageType::kGet;
  request.url = "/index.html";
  request.client_id = MakeClientId("mallory", proxy_->port());
  {
    TcpStream resetter = Connect(server_->port());
    ASSERT_TRUE(
        resetter.WriteAll(net::EncodeLine(request) + "GET /index.html ma"));
    ASSERT_TRUE(WaitFor([&] { return server_->requests_served() == 1; }));
  }  // closed with its reply unread, so the kernel sends a reset
  EXPECT_TRUE(proxy_->Fetch("alice", "/index.html").ok);
  EXPECT_EQ(server_->requests_served(), 2u);  // the cut frame was dropped
}

TEST_F(LiveFixture, IdleConnectionIsClosedAndThePoolReconnects) {
  StartAll(core::Protocol::kInvalidation);
  ASSERT_TRUE(proxy_->Fetch("alice", "/index.html").ok);  // pools a connection
  TcpStream idle = Connect(server_->port());
  ASSERT_TRUE(idle.valid());
  idle.SetReadTimeout(LineServer::kIdleCloseMs + 3000);
  const auto waited = Timed([&] { EXPECT_FALSE(idle.ReadLine().has_value()); });
  EXPECT_EQ(idle.last_error(), IoError::kNone);  // EOF: reaped, no timeout
  EXPECT_GE(waited, std::chrono::milliseconds(LineServer::kIdleCloseMs - 500));
  // The pooled connection went idle first and was reaped too: the next miss
  // fails on it before any reply byte, retries once on a fresh connection,
  // and reaches the server's handler exactly once.
  EXPECT_TRUE(proxy_->Fetch("bob", "/index.html").ok);
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST(LiveReactor, PipelinedRequestsOnOneConnectionGetTwoReplies) {
  LiveServer server({});
  ASSERT_TRUE(server.Start());
  server.AddDocument("/a", 10);
  server.AddDocument("/b", 20);
  net::Request first;
  first.type = net::MessageType::kGet;
  first.url = "/a";
  first.client_id = MakeClientId("alice", 1);
  net::Request second = first;
  second.url = "/b";
  TcpStream stream = Connect(server.port());
  ASSERT_TRUE(stream.valid());
  stream.SetReadTimeout(2000);
  ASSERT_TRUE(
      stream.WriteAll(net::EncodeLine(first) + net::EncodeLine(second)));
  for (const char* url : {"/a", "/b"}) {
    const std::optional<net::Reply> reply = ReadReply(stream);
    ASSERT_TRUE(reply.has_value()) << url;
    EXPECT_EQ(reply->url, url);
  }
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(LiveReactor, OversizeLineGetsErrorThenEof) {
  LiveServer server({});
  ASSERT_TRUE(server.Start());
  TcpStream stream = Connect(server.port());
  ASSERT_TRUE(stream.valid());
  stream.SetReadTimeout(5000);
  ASSERT_TRUE(stream.WriteAll(std::string(TcpStream::kMaxLineBytes, 'x')));
  const std::optional<std::string> reply = stream.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "ERR oversize\n");
  EXPECT_FALSE(stream.ReadLine().has_value());
  EXPECT_EQ(stream.last_error(), IoError::kNone);  // EOF, not a timeout
}

TEST(LiveReactor, ProxyMissesShareOnePersistentConnection) {
  // The fake server accepts one connection and answers two requests on it;
  // a proxy that opened a second connection would sit in the backlog until
  // its read timeout.
  TcpListener fake_server(0);
  ASSERT_TRUE(fake_server.valid());
  std::thread fake([&fake_server] {
    TcpStream stream = fake_server.Accept();
    stream.SetReadTimeout(5000);
    for (int i = 0; i < 2; ++i) {
      const std::optional<std::string> line = stream.ReadLine();
      if (!line.has_value()) return;
      const std::optional<net::Message> message = net::DecodeLine(*line);
      if (!message.has_value()) return;
      const auto* request = std::get_if<net::Request>(&*message);
      if (request == nullptr) return;
      net::Reply reply;
      reply.url = request->url;
      reply.body_bytes = 10;
      reply.version = 1;
      stream.WriteAll(net::EncodeLine(reply));
    }
  });
  LiveProxy::Options options;
  options.server_port = fake_server.port();
  LiveProxy proxy(options);
  ASSERT_TRUE(proxy.Start());
  EXPECT_TRUE(proxy.Fetch("alice", "/a").ok);
  EXPECT_TRUE(proxy.Fetch("bob", "/a").ok);
  fake.join();
  proxy.Stop();
}

TEST(LiveReactor, ProxySurvivesServerRestartOnTheSamePort) {
  auto server = std::make_unique<LiveServer>(LiveServer::Options{});
  ASSERT_TRUE(server->Start());
  server->AddDocument("/index.html", 4096);
  const std::uint16_t port = server->port();
  LiveProxy::Options proxy_options;
  proxy_options.server_port = port;
  LiveProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start());
  ASSERT_TRUE(proxy.Fetch("alice", "/index.html").ok);  // pools a connection

  server.reset();  // closes the server end of the pooled connection
  LiveServer::Options options;
  options.port = port;
  LiveServer restarted(options);
  ASSERT_TRUE(restarted.Start());
  restarted.AddDocument("/index.html", 4096);
  EXPECT_TRUE(proxy.Fetch("bob", "/index.html").ok);
  EXPECT_EQ(restarted.requests_served(), 1u);
  proxy.Stop();
}

}  // namespace
}  // namespace webcc::live
