// Introspection-server tests: request-parser edge cases (split reads, size
// caps, bad request lines — all without sockets), server behavior over real
// loopback connections (routing, 404/405, HEAD, split-write clients, request
// timeout, 503 load-shedding at saturation, graceful drain), endpoint golden
// checks against a live executor, and an HTTP-scrape-while-appending race
// (this file carries the concurrency label and runs under the CI TSan job).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "incremental/continuous_query.h"
#include "net/http_server.h"
#include "obs/http_endpoints.h"
#include "obs/recorder.h"
#include "query/executor.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::HttpServerOptions;
using net::RequestParser;

using State = RequestParser::State;

// ---- RequestParser ----------------------------------------------------------

TEST(RequestParserTest, ParsesSimpleGetDeliveredWhole) {
  RequestParser parser(8192, 8192);
  const std::string raw =
      "GET /metrics?format=json&x=a%20b HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: Value \r\n"
      "\r\n";
  ASSERT_EQ(parser.Feed(raw.data(), raw.size()), State::kDone);
  const HttpRequest& req = parser.request();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.QueryParam("format"), "json");
  EXPECT_EQ(req.QueryParam("x"), "a b");  // percent-decoded
  EXPECT_EQ(req.QueryParam("missing", "fb"), "fb");
  // Header names lowercased, values trimmed.
  EXPECT_EQ(req.headers.at("host"), "localhost");
  EXPECT_EQ(req.headers.at("x-custom"), "Value");
}

TEST(RequestParserTest, ByteByByteSplitReadsParseIdentically) {
  RequestParser parser(8192, 8192);
  const std::string raw =
      "GET /flight HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\nxyz";
  for (char c : raw) {
    ASSERT_NE(parser.Feed(&c, 1), State::kError);
  }
  ASSERT_EQ(parser.state(), State::kDone);
  EXPECT_EQ(parser.request().path, "/flight");
  EXPECT_EQ(parser.request().body, "xyz");
}

TEST(RequestParserTest, OversizedHeadersAre431) {
  RequestParser parser(/*max_header_bytes=*/128, 8192);
  std::string raw = "GET / HTTP/1.1\r\nX-Big: ";
  raw.append(500, 'a');
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), State::kError);
  EXPECT_EQ(parser.error_status(), 431);
  // Error state is sticky.
  EXPECT_EQ(parser.Feed("x", 1), State::kError);
}

TEST(RequestParserTest, OversizedBodyIs413) {
  RequestParser parser(8192, /*max_body_bytes=*/16);
  const std::string raw = "GET / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParserTest, MalformedRequestsAre400) {
  const char* bad[] = {
      "NOT-A-REQUEST-LINE\r\n\r\n",          // no method/target/version split
      "GET /\r\n\r\n",                       // missing version
      "get / HTTP/1.1\r\n\r\n",              // lowercase method token
      "GET relative HTTP/1.1\r\n\r\n",       // target not starting with /
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
      "GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
      "GET / FTP/1.1\r\n\r\n",               // not an HTTP version at all
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* raw : bad) {
    SCOPED_TRACE(raw);
    RequestParser parser(8192, 8192);
    EXPECT_EQ(parser.Feed(raw, std::strlen(raw)), State::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
}

TEST(RequestParserTest, UnsupportedHttpVersionIs505) {
  RequestParser parser(8192, 8192);
  const std::string raw = "GET / HTTP/2.0\r\n\r\n";
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

// ---- Raw-socket test client -------------------------------------------------

/// Connects to 127.0.0.1:`port`, writes `request` in `chunks` pieces with a
/// small pause between them, then reads the whole response ("Connection:
/// close" framing — read to EOF).
std::string RawRequest(std::uint16_t port, const std::string& request,
                       int chunks = 1) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    return "";
  }
  const std::size_t per = (request.size() + chunks - 1) / chunks;
  for (std::size_t off = 0; off < request.size(); off += per) {
    const std::size_t n = std::min(per, request.size() - off);
    EXPECT_EQ(::send(fd, request.data() + off, n, 0),
              static_cast<ssize_t>(n));
    if (chunks > 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(std::uint16_t port, const std::string& target,
                int chunks = 1) {
  return RawRequest(port,
                    "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n", chunks);
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..." — anything shorter is a transport failure.
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

// ---- HttpServer behavior ----------------------------------------------------

TEST(HttpServerTest, RoutesAndErrorStatuses) {
  HttpServer server;  // ephemeral port
  server.Route("/hello", [](const HttpRequest& req) {
    return HttpResponse::Text(200, "hello " + req.QueryParam("who", "world"));
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);  // port 0 resolved to a real ephemeral port
  EXPECT_EQ(server.address(), "127.0.0.1:" + std::to_string(server.port()));

  std::string ok = Get(server.port(), "/hello?who=tpset");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_NE(ok.find("hello tpset"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  // A request split across many tiny writes parses identically.
  EXPECT_EQ(StatusOf(Get(server.port(), "/hello", /*chunks=*/7)), 200);

  EXPECT_EQ(StatusOf(Get(server.port(), "/nope")), 404);
  EXPECT_EQ(StatusOf(RawRequest(
                server.port(), "POST /hello HTTP/1.1\r\nHost: t\r\n\r\n")),
            405);
  EXPECT_EQ(StatusOf(RawRequest(server.port(), "junk\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(RawRequest(server.port(),
                                "GET /hello HTTP/2.0\r\n\r\n")),
            505);

  // HEAD: headers only, no body.
  const std::string head = RawRequest(
      server.port(), "HEAD /hello HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusOf(head), 200);
  EXPECT_EQ(head.find("hello world"), std::string::npos);

  const net::HttpServerStats stats = server.stats();
  EXPECT_GE(stats.served, 6u);
  EXPECT_GE(stats.parse_errors, 2u);

  // Second Start while running is an error; Stop is graceful + idempotent.
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, OversizedHeadersRejectedOverTheWire) {
  HttpServerOptions options;
  options.max_header_bytes = 256;
  HttpServer server(options);
  server.Route("/", [](const HttpRequest&) {
    return HttpResponse::Text(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());
  std::string big = "GET / HTTP/1.1\r\nX-Big: ";
  big.append(1024, 'a');
  big += "\r\n\r\n";
  EXPECT_EQ(StatusOf(RawRequest(server.port(), big)), 431);
  server.Stop();
}

TEST(HttpServerTest, StalledRequestTimesOutWith408) {
  HttpServerOptions options;
  options.request_timeout_ms = 150;
  HttpServer server(options);
  server.Route("/", [](const HttpRequest&) {
    return HttpResponse::Text(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Half a request, then silence: the absolute deadline must fire.
  const char partial[] = "GET / HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, 0), 0);
  std::string response;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(StatusOf(response), 408);
  EXPECT_GE(server.stats().timeouts, 1u);
  server.Stop();
}

TEST(HttpServerTest, ShedsWith503AtSaturation) {
  HttpServerOptions options;
  options.worker_threads = 1;
  options.max_queued_connections = 1;
  options.request_timeout_ms = 30000;  // the blocked handler must not 408
  HttpServer server(options);
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
  server.Route("/slow", [&release, &entered](const HttpRequest&) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return HttpResponse::Text(200, "done");
  });
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker deterministically: send a request on a raw
  // socket and wait until the handler is inside it.
  std::thread c1([&] { EXPECT_EQ(StatusOf(Get(server.port(), "/slow")), 200); });
  for (int i = 0; i < 5000 && entered.load(std::memory_order_acquire) < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(std::memory_order_acquire), 1);

  // Fill the one-slot queue and wait until the accept loop has taken it.
  std::thread c2([&] { EXPECT_EQ(StatusOf(Get(server.port(), "/slow")), 200); });
  for (int i = 0; i < 5000 && server.stats().accepted < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().accepted, 2u);

  // Worker busy + queue full: the next connection is shed at the door with
  // an immediate 503 — no worker involved, no waiting.
  EXPECT_EQ(StatusOf(Get(server.port(), "/slow")), 503);
  // The accept loop counts the shed after writing the 503, so the client
  // can read the response first: wait for the count, not the clock.
  for (int i = 0; i < 5000 && server.stats().saturated < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().saturated, 1u);

  release.store(true, std::memory_order_release);
  c1.join();
  c2.join();  // the queued connection was served, not dropped
  server.Stop();
  // Worker-served responses: c1 and c2. The shed 503 counts in saturated
  // only — it never reached a worker.
  EXPECT_GE(server.stats().served, 2u);
}

// ---- Introspection endpoints ------------------------------------------------

/// A live engine behind a serving introspection server: supermarket
/// relations, one watched continuous query with a subscriber, one applied
/// epoch.
struct ServedEngine {
  testing::SupermarketDb db;
  QueryExecutor exec{db.ctx};
  HttpServer server;

  ServedEngine() {
    for (TpRelation* rel : {&db.a, &db.b, &db.c}) {
      rel->SortFactTime();
      EXPECT_TRUE(exec.Register(*rel).ok());
    }
    Result<ContinuousQuery*> watch =
        exec.RegisterContinuous("w1", "c - (a | b)");
    EXPECT_TRUE(watch.ok());
    (*watch)->Subscribe([](const EpochDelta&) {});
    DeltaBatch batch;
    batch.Add({Value(std::string("milk"))}, Interval(12, 14), 0.5);
    EXPECT_TRUE(exec.Append("a", batch).ok());
    // One ad-hoc query so the exec metrics the goldens look for exist
    // (metrics register lazily on first use).
    EXPECT_TRUE(exec.Execute("c - (a | b)").ok());
    obs::RegisterIntrospectionEndpoints(&server, &exec);
    EXPECT_TRUE(server.Start().ok());
  }
  ~ServedEngine() { server.Stop(); }
};

TEST(HttpEndpointsTest, GoldenChecks) {
  ServedEngine engine;
  const std::uint16_t port = engine.server.port();

  const std::string metrics = Get(port, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("# TYPE tpset_exec_queries_total counter"),
            std::string::npos);

  // The JSON rendering serves the same scrape in the CI-validated format.
  const std::string json = Get(port, "/metrics?format=json");
  EXPECT_EQ(StatusOf(json), 200);
  EXPECT_NE(json.find("{\"name\":\"tpset_exec_queries_total\","
                      "\"type\":\"counter\""),
            std::string::npos);
  EXPECT_EQ(StatusOf(Get(port, "/metrics?format=xml")), 400);

  EXPECT_NE(Get(port, "/healthz").find("ok"), std::string::npos);
  // Append started the recorder and an executor is wired: ready.
  EXPECT_EQ(StatusOf(Get(port, "/readyz")), 200);

  const std::string flight = Get(port, "/flight");
  EXPECT_EQ(StatusOf(flight), 200);
  EXPECT_NE(flight.find("\"flight_record\":1"), std::string::npos);

  const std::string queries = Get(port, "/queries");
  EXPECT_EQ(StatusOf(queries), 200);
  EXPECT_NE(queries.find("\"name\":\"w1\""), std::string::npos);
  EXPECT_NE(queries.find("\"epochs_applied\":1"), std::string::npos);
  EXPECT_NE(queries.find("\"lag\":0"), std::string::npos);
  EXPECT_NE(queries.find("\"name\":\"a\""), std::string::npos);

  const std::string statusz = Get(port, "/statusz");
  EXPECT_EQ(StatusOf(statusz), 200);
  EXPECT_NE(statusz.find("text/html"), std::string::npos);
  EXPECT_NE(statusz.find("w1"), std::string::npos);

  EXPECT_EQ(StatusOf(Get(port, "/events?n=5")), 200);
  EXPECT_EQ(StatusOf(Get(port, "/events?n=junk")), 400);
  EXPECT_EQ(StatusOf(Get(port, "/slow")), 200);
  EXPECT_EQ(StatusOf(Get(port, "/top?window=5")), 200);
  EXPECT_EQ(StatusOf(Get(port, "/top?window=abc")), 400);
  EXPECT_EQ(StatusOf(Get(port, "/top?window=0")), 400);
}

TEST(HttpEndpointsTest, ReadyzReportsNotReadyWithoutExecutor) {
  HttpServer server;
  obs::RegisterIntrospectionEndpoints(&server, nullptr);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(Get(server.port(), "/healthz")), 200);
  EXPECT_EQ(StatusOf(Get(server.port(), "/readyz")), 503);
  // /queries degrades to empty catalogs, not an error.
  const std::string queries = Get(server.port(), "/queries");
  EXPECT_EQ(StatusOf(queries), 200);
  EXPECT_NE(queries.find("\"relations\":[]"), std::string::npos);
  server.Stop();
}

// The concurrency check behind the tentpole's safety claim: HTTP /metrics
// and /flight scrapes hammered from worker threads while the main thread
// applies epochs. Under the CI TSan job (this file is concurrency-labeled)
// any racy read path — registry scrape, StampedRing reads, dump formatting,
// the executor fence — fails here.
TEST(HttpEndpointsTest, ScrapesRaceEpochAppliesCleanly) {
  ServedEngine engine;
  const std::uint16_t port = engine.server.port();
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};

  std::thread metrics_scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (StatusOf(Get(port, "/metrics")) == 200) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread flight_scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (StatusOf(Get(port, "/flight")) == 200) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread state_scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Get(port, "/queries");
      Get(port, "/top?window=2");
    }
  });

  // Epochs apply while the scrapers run; every append fires the subscriber
  // and advances the rings the scrapes read. Applies go on past the first
  // 40 until a scrape has landed (bounded), so a loaded host that delays
  // the scrapers' first response still gets a real race.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < 40 || (scrapes.load(std::memory_order_relaxed) == 0 &&
                             std::chrono::steady_clock::now() < deadline);
       ++i) {
    DeltaBatch batch;
    batch.Add({Value(std::string("beer"))},
              Interval(100 + 2 * i, 101 + 2 * i), 0.25);
    ASSERT_TRUE(engine.exec.Append(i % 2 == 0 ? "a" : "c", batch).ok());
    obs::Recorder::Global().TickOnce();
  }
  stop.store(true, std::memory_order_release);
  metrics_scraper.join();
  flight_scraper.join();
  state_scraper.join();
  EXPECT_GT(scrapes.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace tpset
