// Tests of the embedded HTTP scrape endpoint (src/obs/http_export.h):
// endpoint routing, the /metrics byte-identity contract, /healthz wired
// to SLO state, /quitquitquit, clean joinable shutdown, and concurrent
// scrapes racing a metric-writing ingest thread, and idle or slow-drip
// clients and clients that never read their response, none of which may
// stall other scrapes or Stop(), and a seeded mutation fuzz of the request
// line (run under TSan via the `concurrency` ctest label).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace trajkit::obs {
namespace {

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Connects to the server; -1 on failure. Reads time out after 10 s so a
/// stalled server fails the test instead of hanging it.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval read_timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
               sizeof(read_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` as is, shuts down the write side (so the server sees
/// EOF at once instead of waiting out its read deadline) and returns
/// everything read up to EOF or a reset. Empty when the connection fails.
/// `*timed_out` (when given) is set if the 10 s read timeout fired.
std::string Exchange(int port, const std::string& request,
                     bool* timed_out = nullptr) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        timed_out != nullptr) {
      *timed_out = true;
    }
    if (n <= 0) break;
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return raw;
}

/// Minimal HTTP/1.0 client: one request, read to EOF (the server closes
/// after every response — that is the protocol).
HttpReply Fetch(int port, const std::string& path,
                const std::string& method = "GET") {
  HttpReply reply;
  const std::string raw =
      Exchange(port, method + " " + path + " HTTP/1.0\r\n\r\n");
  // "HTTP/1.0 200 OK\r\nheaders\r\n\r\nbody"
  if (raw.size() > 12) reply.status = std::atoi(raw.c_str() + 9);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  const size_t ct = raw.find("Content-Type: ");
  if (ct != std::string::npos && ct < header_end) {
    const size_t eol = raw.find("\r\n", ct);
    reply.content_type = raw.substr(ct + 14, eol - ct - 14);
  }
  reply.body = raw.substr(header_end + 4);
  return reply;
}

TEST(HttpExportServerTest, StartsOnEphemeralPortAndStopsCleanly) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  // A second Start on a running server fails loudly.
  EXPECT_FALSE(server.Start(options, &error));
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  // And the server is restartable after a clean stop.
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  server.Stop();
}

TEST(HttpExportServerTest, MetricsScrapeMatchesFileDumpBytes) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests").Increment(42);
  registry.GetGauge("serve.depth").Set(1.5);
  registry.GetHistogram("serve.latency").Observe(0.01);
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const HttpReply reply = Fetch(server.port(), "/metrics");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "text/plain; version=0.0.4; charset=utf-8");
  // The byte-identity contract with --metrics_prom: same registry state,
  // same bytes — and the scrape itself must not have mutated anything.
  EXPECT_EQ(reply.body, registry.ToPrometheusText());
  const HttpReply json = Fetch(server.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body, registry.ToJson());
  EXPECT_EQ(reply.body, registry.ToPrometheusText());
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
}

TEST(HttpExportServerTest, RoutesUnwiredEndpointsTo404) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/timeseries.json").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/statusz").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/tracez").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/quitquitquit").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/nonsense").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/metrics", "POST").status, 405);
  // /healthz with no SLO engine is vacuously healthy.
  const HttpReply healthz = Fetch(server.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");
  server.Stop();
}

TEST(HttpExportServerTest, WiredEndpointsServeTimeseriesStatuszAndQuit) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(5);
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  store.Tick(0.0);
  std::atomic<int> quits{0};
  HttpExportOptions options;
  options.registry = &registry;
  options.timeseries = &store;
  options.statusz = [] { return std::string("status page body\n"); };
  options.on_quit = [&quits] { ++quits; };
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const HttpReply ts = Fetch(server.port(), "/timeseries.json");
  EXPECT_EQ(ts.status, 200);
  EXPECT_EQ(ts.body, store.ToJson());
  const HttpReply statusz = Fetch(server.port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.body, "status page body\n");
  const HttpReply quit = Fetch(server.port(), "/quitquitquit");
  EXPECT_EQ(quit.status, 200);
  EXPECT_EQ(quit.body, "bye\n");
  server.Stop();  // the owner stops the server; on_quit only signals
  EXPECT_EQ(quits.load(), 1);
}

TEST(HttpExportServerTest, HealthzReflectsSloBreach) {
  MetricsRegistry registry;
  Counter& bad = registry.GetCounter("bad");
  Counter& total = registry.GetCounter("total");
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "shed:type=ratio,bad=bad,total=total,budget=0.5,fast=1,slow=1",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  HttpExportOptions options;
  options.registry = &registry;
  options.slo = &engine;
  HttpExportServer server;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  // Drive the SLO into breach: 100% bad over both windows.
  store.Tick(0.0);
  engine.Evaluate(0);
  total.Increment(10);
  bad.Increment(10);
  store.Tick(1.0);
  engine.Evaluate(1);
  const HttpReply breaching = Fetch(server.port(), "/healthz");
  EXPECT_EQ(breaching.status, 503);
  EXPECT_EQ(breaching.body, "breaching: shed\n");
  // Recovery flips it back.
  total.Increment(10);
  store.Tick(2.0);
  engine.Evaluate(2);
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  server.Stop();
}

TEST(HttpExportServerTest, ConcurrentScrapesDuringIngestAreClean) {
  // The TSan contract: scrape threads hammer every read endpoint while an
  // ingest thread writes metrics and ticks the store, racing the whole
  // registry -> timeseries -> SLO -> HTTP read path.
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("serve.requests");
  Histogram& latency = registry.GetHistogram("serve.latency");
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "lat:type=latency,metric=serve.latency,ceiling_ms=100,fast=2,slow=4",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  store.TrackCounter("serve.requests");
  HttpExportOptions options;
  options.registry = &registry;
  options.timeseries = &store;
  options.slo = &engine;
  HttpExportServer server;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    for (uint64_t tick = 0; !stop.load(std::memory_order_relaxed); ++tick) {
      requests.Increment(3);
      latency.Observe(0.005);
      store.Tick(static_cast<double>(tick));
      engine.Evaluate(tick);
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([port, t] {
      static constexpr const char* kPaths[] = {
          "/metrics", "/metrics.json", "/timeseries.json", "/healthz"};
      for (int i = 0; i < 8; ++i) {
        const HttpReply reply = Fetch(port, kPaths[(t + i) % 4]);
        EXPECT_EQ(reply.status, 200) << kPaths[(t + i) % 4];
        EXPECT_FALSE(reply.body.empty());
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop.store(true, std::memory_order_relaxed);
  ingest.join();
  EXPECT_GE(server.requests_served(), 32u);
  // Stop with no in-flight work left: the accept loop must join.
  server.Stop();
  EXPECT_FALSE(server.running());
}

// A client that connects and never sends a byte is closed at the request
// deadline, after which the scrape queued behind it is answered.
TEST(HttpExportServerTest, IdleClientDoesNotStallHealthz) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  const int idle = Connect(server.port());
  ASSERT_GE(idle, 0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  // The idle connection was closed without an answer.
  char byte;
  EXPECT_EQ(::read(idle, &byte, 1), 0);
  ::close(idle);
  server.Stop();
}

// A client that sends its request one byte at a time never finishes
// within the deadline; it is cut off and /healthz still answers.
TEST(HttpExportServerTest, SlowDripClientDoesNotStallHealthz) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  const int drip = Connect(server.port());
  ASSERT_GE(drip, 0);
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
    for (const char byte : request) {
      if (done.load() || ::send(drip, &byte, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  done.store(true);
  dripper.join();
  // The dripping client got no response before it was cut off.
  char byte;
  EXPECT_EQ(::read(drip, &byte, 1), 0);
  ::close(drip);
  server.Stop();
}

TEST(HttpExportServerTest, StopReturnsPromptlyWithIdleClientConnected) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  const int idle = Connect(server.port());
  ASSERT_GE(idle, 0);
  // Let the server accept the connection and wait on its request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  // Well under the one-second request deadline: Stop() does not wait it
  // out.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(800));
  EXPECT_FALSE(server.running());
  ::close(idle);
}

// A request line cut short by the client's EOF, or 8 KiB without a LF,
// is answered 400 rather than closed without a word.
TEST(HttpExportServerTest, UnreadableRequestLineIsBadRequest) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  for (const std::string& request :
       {std::string("GET /metrics HTTP/1.0"), std::string(),
        std::string(20000, 'A')}) {
    const std::string raw = Exchange(server.port(), request);
    EXPECT_EQ(raw.substr(0, raw.find("\r\n")), "HTTP/1.0 400 Bad Request")
        << request.size() << "-byte request";
  }
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  server.Stop();
}

/// Opens a connection with a tiny receive buffer, asks for /statusz and
/// never reads the answer.
int RequestAndNeverRead(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::string request = "GET /statusz HTTP/1.0\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A client that asks for a response far larger than the socket buffers
// and never reads it is abandoned at the connection deadline: the scrape
// queued behind it is answered, and Stop() does not wait on the write.
TEST(HttpExportServerTest, NonReadingClientDoesNotStallScrapesOrStop) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  options.statusz = [] { return std::string(size_t{16} << 20, 'x'); };
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  const int stuck = RequestAndNeverRead(server.port());
  ASSERT_GE(stuck, 0);
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));

  const int stuck_again = RequestAndNeverRead(server.port());
  ASSERT_GE(stuck_again, 0);
  // Let the server fill the socket buffers and wait to write more.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_FALSE(server.running());
  ::close(stuck);
  ::close(stuck_again);
}

/// One seeded mutation of a request line: a byte flip, a truncation,
/// inserted spaces, '?', CR or LF, a dropped method, or an oversized run
/// past the server's 8 KiB read cap.
void Mutate(Rng& rng, std::string& request) {
  const size_t at = static_cast<size_t>(rng.NextBounded(request.size() + 1));
  switch (rng.NextBounded(7)) {
    case 0:
      if (!request.empty()) {
        request[at % request.size()] ^=
            static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
    case 1:
      request.resize(at);
      break;
    case 2:
      request.insert(at, 1 + rng.NextBounded(3), ' ');
      break;
    case 3:
      request.insert(at, 1, '?');
      break;
    case 4:
      request.insert(at, 1, rng.NextBounded(2) == 0 ? '\r' : '\n');
      break;
    case 5:
      if (request.rfind("GET", 0) == 0) request.erase(0, 3);
      break;
    default:
      request.insert(at, 8192 + rng.NextBounded(8192), 'A');
      break;
  }
}

TEST(HttpExportServerTest, MutatedRequestLinesGetAStatusOrACleanClose) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests").Increment(7);
  registry.GetHistogram("serve.latency").Observe(0.02);
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  Rng rng(20261019);
  for (int trial = 0; trial < 400; ++trial) {
    std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) Mutate(rng, request);
    bool timed_out = false;
    const std::string raw = Exchange(server.port(), request, &timed_out);
    EXPECT_FALSE(timed_out) << "trial " << trial << " hung";
    // The client sends everything and then its EOF, so every request gets
    // an answer: 400 when no LF arrives in the first 8 KiB read.
    const std::string status_line = raw.substr(0, raw.find("\r\n"));
    const size_t line_end = request.find('\n');
    if (line_end == std::string::npos) {
      EXPECT_EQ(status_line, "HTTP/1.0 400 Bad Request") << "trial " << trial;
    } else if (line_end < 8192) {
      EXPECT_TRUE(status_line == "HTTP/1.0 200 OK" ||
                  status_line == "HTTP/1.0 404 Not Found" ||
                  status_line == "HTTP/1.0 405 Method Not Allowed")
          << "trial " << trial << ": '" << status_line << "'";
    } else {
      // The LF lies past 8 KiB: whether the last read reached it depends
      // on how the reads split the stream.
      EXPECT_FALSE(status_line.empty()) << "trial " << trial;
    }
  }
  EXPECT_EQ(Fetch(server.port(), "/metrics").body,
            registry.ToPrometheusText());
  server.Stop();
}

}  // namespace
}  // namespace trajkit::obs
