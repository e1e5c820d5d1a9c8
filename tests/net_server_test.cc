// End-to-end tests of the epoll query server: real sockets against a live
// HttpServer over a live ServingRuntime. Covers the whole request surface
// (healthy streams, document targeting, limits), every governance-to-HTTP
// mapping (400/404/429-style 503 shed, 504 deadline, partial results over
// corrupt shards), connection behavior (keep-alive, pipelining, HTTP/1.0,
// hostile bytes), disconnect-driven cancellation, graceful drain — and a
// concurrency stress (NetServerStress*) that the TSan pass runs.
#include "net/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "net/client.h"
#include "persist/fs_util.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"

namespace xpwqo {
namespace net {
namespace {

using std::chrono::milliseconds;

constexpr const char* kShelfA = R"(<library>
  <shelf><book><title>Automata</title><keyword>trees</keyword></book></shelf>
  <shelf><book><title>Indexes</title></book></shelf>
</library>)";

constexpr const char* kShelfB = R"(<library>
  <shelf><book><keyword>succinct</keyword><keyword>xpath</keyword></book>
  </shelf>
</library>)";

/// Same latch as the runtime tests: parks a worker inside a lazy loader so
/// tests control exactly when a job finishes.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool reached = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu);
    reached = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void WaitReached() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return reached; });
  }
};

Collection::LazyLoader GatedLoader(std::shared_ptr<Gate> gate,
                                   std::string xml) {
  return [gate = std::move(gate),
          xml = std::move(xml)](std::shared_ptr<Alphabet> alphabet)
             -> StatusOr<Engine> {
    gate->WaitOpen();
    LoadOptions options;
    options.alphabet = std::move(alphabet);
    return Engine::FromXmlString(xml, options);
  };
}

/// One collection + runtime + server, wired and started.
struct TestServer {
  Collection collection;
  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<HttpServer> server;

  void Start(ServingRuntimeOptions runtime_options = {},
             ServerOptions server_options = {}) {
    runtime = std::make_unique<ServingRuntime>(&collection, runtime_options);
    server = std::make_unique<HttpServer>(&collection, runtime.get(),
                                          server_options);
    ASSERT_TRUE(server->Start().ok());
  }
};

/// The default healthy two-document library.
void AddLibrary(Collection* collection) {
  ASSERT_TRUE(collection->AddXmlString("a", kShelfA).ok());
  ASSERT_TRUE(collection->AddXmlString("b", kShelfB).ok());
}

BlockingHttpClient Connected(const TestServer& ts) {
  BlockingHttpClient client;
  EXPECT_TRUE(client.Connect(ts.server->port()).ok());
  return client;
}

TEST(NetServerTest, HealthAndStats) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  auto health = client.Get("/health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);

  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  for (const char* key :
       {"\"server\":", "\"documents\":2", "\"net\":", "\"runtime\":",
        "\"admission\":", "\"latency_us\":", "\"buckets\":", "\"scrub\":"}) {
    EXPECT_NE(stats->body.find(key), std::string::npos) << key;
  }
}

TEST(NetServerTest, QueryStreamsChunkedRows) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  auto resp = client.Get("/query?q=%2F%2Fbook%2Fkeyword");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  ASSERT_NE(resp->FindHeader("transfer-encoding"), nullptr);
  EXPECT_EQ(*resp->FindHeader("transfer-encoding"), "chunked");
  // Both documents answered, in collection order, with node lists.
  const size_t row_a = resp->body.find("{\"name\":\"a\",\"status\":\"OK\"");
  const size_t row_b = resp->body.find("{\"name\":\"b\",\"status\":\"OK\"");
  ASSERT_NE(row_a, std::string::npos) << resp->body;
  ASSERT_NE(row_b, std::string::npos) << resp->body;
  EXPECT_LT(row_a, row_b);
  EXPECT_NE(resp->body.find("\"total_nodes\":3"), std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("\"latency_us\":"), std::string::npos);
}

TEST(NetServerTest, DocumentTargetingAndLimit) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  auto only_b = client.Get("/query?q=%2F%2Fkeyword&doc=b");
  ASSERT_TRUE(only_b.ok());
  EXPECT_EQ(only_b->status, 200);
  EXPECT_EQ(only_b->body.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(only_b->body.find("\"name\":\"b\""), std::string::npos);

  auto limited = client.Get("/query?q=%2F%2Fkeyword&limit=1");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, 200);
  EXPECT_NE(limited->body.find("\"total_nodes\":1"), std::string::npos)
      << limited->body;

  auto unknown = client.Get("/query?q=%2F%2Fkeyword&doc=nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);
}

TEST(NetServerTest, BadRequestsGetClean4xx) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  struct Case {
    const char* target;
    int status;
  };
  for (const Case& c : {Case{"/query", 400},             // missing q
                        Case{"/query?q=%2F%2Fbook%5B", 400},  // bad XPath
                        Case{"/query?q=%2F%2Fa&limit=x", 400},
                        Case{"/nope", 404}}) {
    auto resp = client.Get(c.target);
    ASSERT_TRUE(resp.ok()) << c.target;
    EXPECT_EQ(resp->status, c.status) << c.target;
    EXPECT_NE(resp->body.find("\"error\":"), std::string::npos) << c.target;
    EXPECT_TRUE(resp->keep_alive) << c.target;  // app errors keep the conn
  }

  auto bad_deadline = client.Get("/query?q=%2F%2Fa", "X-Deadline-Ms: -5\r\n");
  ASSERT_TRUE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline->status, 400);
}

TEST(NetServerTest, HostileBytesCloseCleanly) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();

  {  // Malformed request line → 400, then the server closes.
    BlockingHttpClient client = Connected(ts);
    ASSERT_TRUE(client.SendRaw("garbage\r\n\r\n").ok());
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 400);
    EXPECT_FALSE(resp->keep_alive);
  }
  {  // Non-GET → 405 with Allow semantics, connection stays up.
    BlockingHttpClient client = Connected(ts);
    ASSERT_TRUE(client.SendRaw("POST /query HTTP/1.1\r\n\r\n").ok());
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 405);
  }
  {  // Invalid percent-encoding in q= → 400.
    BlockingHttpClient client = Connected(ts);
    ASSERT_TRUE(client.SendRaw("GET /query?q=%zz HTTP/1.1\r\n\r\n").ok());
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 400);
  }
  {  // A head that can never complete under the cap → 431.
    ServerOptions small;
    small.max_head_bytes = 256;
    TestServer tiny;
    AddLibrary(&tiny.collection);
    tiny.Start({}, small);
    BlockingHttpClient client = Connected(tiny);
    std::string flood = "GET / HTTP/1.1\r\nX-Pad: ";
    flood.append(1024, 'a');
    ASSERT_TRUE(client.SendRaw(flood).ok());
    auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 431);
    EXPECT_FALSE(resp->keep_alive);
  }
  auto stats = Connected(ts).Get("/stats");
  ASSERT_TRUE(stats.ok());  // the server is still healthy afterwards
  EXPECT_EQ(stats->status, 200);
}

TEST(NetServerTest, CorruptShardYieldsPartialResult) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ASSERT_TRUE(ts.collection
                  .AddLazy("cursed",
                           [](std::shared_ptr<Alphabet>) -> StatusOr<Engine> {
                             return Status::Corruption("checksum mismatch");
                           })
                  .ok());
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  auto resp = client.Get("/query?q=%2F%2Fkeyword");
  ASSERT_TRUE(resp.ok());
  // The job completes: healthy rows serve, the corrupt shard is a per-row
  // error inside a 200 — partial results, not a failed response.
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"name\":\"a\",\"status\":\"OK\""),
            std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("\"name\":\"cursed\",\"status\":\"Corruption\""),
            std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("checksum mismatch"), std::string::npos);
}

TEST(NetServerTest, QueuedDeadlineMapsTo504) {
  auto gate = std::make_shared<Gate>();
  TestServer ts;
  ASSERT_TRUE(
      ts.collection.AddLazy("slow", GatedLoader(gate, kShelfA)).ok());
  ServingRuntimeOptions one_worker;
  one_worker.num_threads = 1;
  ts.Start(one_worker);
  BlockingHttpClient parked = Connected(ts);
  BlockingHttpClient doomed = Connected(ts);

  // Park the only worker, then queue a request whose budget expires while
  // it waits: the runtime evicts it at dequeue without evaluation → 504.
  ASSERT_TRUE(parked
                  .SendRequest("/query?q=%2F%2Fbook",
                               "X-Deadline-Ms: 30000\r\n")
                  .ok());
  gate->WaitReached();
  ASSERT_TRUE(
      doomed.SendRequest("/query?q=%2F%2Fbook", "X-Deadline-Ms: 20\r\n")
          .ok());
  // Make sure the second job was admitted to the queue (not rejected at
  // submit), then let its budget lapse before releasing the worker — the
  // eager-eviction path, observable as doa_evicted.
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.runtime->Stats().admitted < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::this_thread::sleep_for(milliseconds(60));
  gate->Open();

  auto fine = parked.ReadResponse();
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200);
  auto late = doomed.ReadResponse();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->status, 504);

  const ServingStatsSnapshot stats = ts.runtime->Stats();
  EXPECT_GE(stats.deadline_exceeded, 1);
  EXPECT_GE(stats.doa_evicted, 1);
  const NetStatsSnapshot net = ts.server->NetStats();
  EXPECT_GE(net.responses_deadline, 1);
}

TEST(NetServerTest, OverloadShedsWith503AndRetryAfter) {
  auto gate = std::make_shared<Gate>();
  TestServer ts;
  ASSERT_TRUE(
      ts.collection.AddLazy("slow", GatedLoader(gate, kShelfA)).ok());
  ServingRuntimeOptions tiny;
  tiny.num_threads = 1;
  tiny.max_queue = 1;  // one running (parked), one waiting, rest shed
  ts.Start(tiny);
  BlockingHttpClient parked = Connected(ts);
  BlockingHttpClient filler = Connected(ts);
  BlockingHttpClient shed = Connected(ts);

  ASSERT_TRUE(parked
                  .SendRequest("/query?q=%2F%2Fbook",
                               "X-Deadline-Ms: 30000\r\n")
                  .ok());
  gate->WaitReached();
  ASSERT_TRUE(filler
                  .SendRequest("/query?q=%2F%2Fbook",
                               "X-Deadline-Ms: 30000\r\n")
                  .ok());
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.runtime->Stats().admitted < 2) {  // the filler holds the slot
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(milliseconds(1));
  }
  auto refused = shed.Get("/query?q=%2F%2Fbook");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 503);
  ASSERT_NE(refused->FindHeader("retry-after"), nullptr);
  EXPECT_EQ(*refused->FindHeader("retry-after"), "1");

  gate->Open();
  auto fine = parked.ReadResponse();
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200);
  auto queued = filler.ReadResponse();
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->status, 200);
  EXPECT_GE(ts.server->NetStats().responses_shed, 1);
  EXPECT_GE(ts.runtime->Stats().shed, 1);
}

TEST(NetServerTest, ClientDisconnectCancelsInFlightQuery) {
  auto gate = std::make_shared<Gate>();
  TestServer ts;
  ASSERT_TRUE(
      ts.collection.AddLazy("slow", GatedLoader(gate, kShelfA)).ok());
  ServingRuntimeOptions one_worker;
  one_worker.num_threads = 1;
  ts.Start(one_worker);

  {
    BlockingHttpClient vanishing = Connected(ts);
    ASSERT_TRUE(vanishing
                    .SendRequest("/query?q=%2F%2Fbook",
                                 "X-Deadline-Ms: 30000\r\n")
                    .ok());
    gate->WaitReached();  // the job is evaluating (parked in the loader)
  }  // ~BlockingHttpClient closes the socket — the client vanishes

  // The loop notices the EOF and cancels the request's token.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->NetStats().disconnects_mid_query < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never observed the disconnect";
    std::this_thread::sleep_for(milliseconds(1));
  }
  gate->Open();  // the parked loader resumes into a cancelled context
  while (ts.runtime->Stats().cancelled < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job was not cancelled";
    std::this_thread::sleep_for(milliseconds(1));
  }
  // The server stays fully serviceable afterwards.
  auto after = Connected(ts).Get("/health");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
}

TEST(NetServerTest, PipelinedRequestsAnswerInOrder) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);

  // Three requests in one burst; responses must come back in order on the
  // same connection.
  ASSERT_TRUE(client
                  .SendRaw("GET /health HTTP/1.1\r\n\r\n"
                           "GET /query?q=%2F%2Fkeyword&doc=b HTTP/1.1\r\n\r\n"
                           "GET /health HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  EXPECT_NE(first->body.find("\"ok\""), std::string::npos);
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("\"name\":\"b\""), std::string::npos);
  auto third = client.ReadResponse();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->status, 200);
  EXPECT_NE(third->body.find("\"ok\""), std::string::npos);
}

TEST(NetServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);
  for (int i = 0; i < 10; ++i) {
    auto resp = client.Get("/query?q=%2F%2Fbook%2Ftitle");
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp->status, 200);
    EXPECT_TRUE(resp->keep_alive);
  }
  EXPECT_EQ(ts.server->NetStats().connections_accepted, 1);
  EXPECT_EQ(ts.server->NetStats().responses_ok, 10);
}

/// The query-string encoding of `text`: every byte but [A-Za-z0-9] as %XX.
std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c)) {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

/// The `label ` lines of a freshly saved MANIFEST of `collection`.
std::vector<std::string> ManifestLabels(const Collection& collection,
                                        const std::string& dir) {
  EXPECT_TRUE(SaveCollection(collection, dir).ok());
  auto manifest = persist::ReadFileToString(dir + "/MANIFEST");
  EXPECT_TRUE(manifest.ok());
  std::vector<std::string> labels;
  size_t begin = 0;
  while (manifest.ok() && begin < manifest->size()) {
    size_t end = manifest->find('\n', begin);
    if (end == std::string::npos) end = manifest->size();
    std::string line = manifest->substr(begin, end - begin);
    if (line.rfind("label ", 0) == 0) labels.push_back(std::move(line));
    begin = end + 1;
  }
  return labels;
}

TEST(NetServerTest, UnseenLabelFloodLeavesSharedStateAlone) {
  // Any client can send query strings naming labels no document carries.
  // Compiling them must not grow the shared alphabet (nor, through it, the
  // saved MANIFEST), and the compiled plans stay bounded by the cache.
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  const std::string dir = ::testing::TempDir() + "xpwqo_net_flood_" +
                          std::to_string(::getpid());
  const std::vector<std::string> labels_before =
      ManifestLabels(ts.collection, dir + "_before");
  const int alphabet_before = ts.collection.alphabet_ptr()->size();

  BlockingHttpClient client = Connected(ts);
  for (int i = 0; i < 2000; ++i) {
    const std::string n = std::to_string(i);
    const std::string shapes[] = {
        "//n" + n,
        "//book[x" + n + "]",
        "//shelf/@y" + n,
        "//book[not(z" + n + ") and keyword]",
    };
    auto resp = client.Get("/query?q=" + UrlEncode(shapes[i % 4]));
    ASSERT_TRUE(resp.ok()) << i;
    ASSERT_EQ(resp->status, 200) << shapes[i % 4];
  }
  EXPECT_EQ(ts.collection.alphabet_ptr()->size(), alphabet_before);
  EXPECT_LE(ts.collection.query_cache()->size(), QueryCache::kDefaultCapacity);
  EXPECT_EQ(ManifestLabels(ts.collection, dir + "_after"), labels_before);
}

TEST(NetServerTest, Http10GetsContentLengthFraming) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ts.Start();
  BlockingHttpClient client = Connected(ts);
  ASSERT_TRUE(
      client.SendRaw("GET /query?q=%2F%2Fkeyword HTTP/1.0\r\n\r\n").ok());
  auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->FindHeader("transfer-encoding"), nullptr);
  ASSERT_NE(resp->FindHeader("content-length"), nullptr);
  EXPECT_FALSE(resp->keep_alive);
  EXPECT_NE(resp->body.find("\"total_nodes\":3"), std::string::npos);
}

TEST(NetServerTest, GracefulDrainFinishesInFlightRequests) {
  auto gate = std::make_shared<Gate>();
  TestServer ts;
  ASSERT_TRUE(
      ts.collection.AddLazy("slow", GatedLoader(gate, kShelfA)).ok());
  ServingRuntimeOptions one_worker;
  one_worker.num_threads = 1;
  ts.Start(one_worker);
  BlockingHttpClient inflight = Connected(ts);
  BlockingHttpClient idle = Connected(ts);

  ASSERT_TRUE(inflight
                  .SendRequest("/query?q=%2F%2Fbook",
                               "X-Deadline-Ms: 30000\r\n")
                  .ok());
  gate->WaitReached();
  ts.server->RequestStop();
  gate->Open();

  // The in-flight request still gets its full response.
  auto resp = inflight.ReadResponse();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_TRUE(ts.server->WaitUntilStopped());  // drained before the deadline

  // The idle connection was closed and new connects are refused.
  auto dead = idle.Get("/health");
  EXPECT_FALSE(dead.ok());
  BlockingHttpClient late;
  EXPECT_FALSE(late.Connect(ts.server->port()).ok());
}

TEST(NetServerTest, DrainDeadlineCutsStuckRequests) {
  auto gate = std::make_shared<Gate>();
  TestServer ts;
  ASSERT_TRUE(
      ts.collection.AddLazy("slow", GatedLoader(gate, kShelfA)).ok());
  ServingRuntimeOptions one_worker;
  one_worker.num_threads = 1;
  ServerOptions fast_drain;
  fast_drain.drain_deadline = milliseconds(100);
  ts.Start(one_worker, fast_drain);
  BlockingHttpClient stuck = Connected(ts);

  ASSERT_TRUE(stuck
                  .SendRequest("/query?q=%2F%2Fbook",
                               "X-Deadline-Ms: 30000\r\n")
                  .ok());
  gate->WaitReached();
  ts.server->RequestStop();

  // The job never finishes on its own; the drain deadline cuts it off.
  // WaitUntilStopped then blocks awaiting the orphaned (cancelled) ticket,
  // which needs the gate open to unpark — open it once the cut happened.
  std::atomic<bool> drained{true};
  std::thread waiter(
      [&] { drained.store(ts.server->WaitUntilStopped()); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->NetStats().disconnects_mid_query < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "drain deadline never cut the stuck connection";
    std::this_thread::sleep_for(milliseconds(1));
  }
  gate->Open();
  waiter.join();
  EXPECT_FALSE(drained.load());  // leftovers were cut, not drained
  EXPECT_GE(ts.runtime->Stats().cancelled, 1);
}

// The concurrency stress the TSan preset runs: ≥8 persistent connections
// hammering a live server with a mix of healthy queries, document
// targeting, limits, tight deadlines (some expire → 504), shed-prone
// bursts over a tiny queue (503), corrupt-shard partial results, and a
// few mid-query disconnects. Assertions are about integrity — every
// response well-formed with an expected status, counters consistent —
// not exact counts, which depend on timing.
TEST(NetServerStressTest, ConcurrentMixedClients) {
  TestServer ts;
  AddLibrary(&ts.collection);
  ASSERT_TRUE(ts.collection
                  .AddLazy("cursed",
                           [](std::shared_ptr<Alphabet>) -> StatusOr<Engine> {
                             return Status::Corruption("checksum mismatch");
                           })
                  .ok());
  ServingRuntimeOptions tiny;
  tiny.num_threads = 2;
  tiny.max_queue = 2;  // small enough that bursts shed
  ts.Start(tiny);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> ok_count{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&ts, &ok_count, &failures, t] {
      BlockingHttpClient client;
      if (!client.Connect(ts.server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        std::string target;
        std::string headers;
        switch ((t + i) % 5) {
          case 0: target = "/query?q=%2F%2Fbook%2Fkeyword"; break;
          case 1: target = "/query?q=%2F%2Fbook&doc=a"; break;
          case 2: target = "/query?q=%2F%2Fkeyword&limit=1"; break;
          case 3:
            target = "/query?q=%2F%2Fbook%2Ftitle";
            headers = "X-Deadline-Ms: 1\r\n";  // may or may not expire
            break;
          default: target = "/stats"; break;
        }
        auto resp = client.Get(target, headers);
        if (!resp.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (resp->status == 200) ok_count.fetch_add(1);
        // Every outcome must be one of the contract's statuses.
        if (resp->status != 200 && resp->status != 503 &&
            resp->status != 504) {
          failures.fetch_add(1);
          return;
        }
        if (!resp->keep_alive) {
          client.Close();
          if (!client.Connect(ts.server->port()).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      }
      // Half the clients vanish mid-query on the way out.
      if (t % 2 == 0) {
        (void)client.SendRequest("/query?q=%2F%2Fbook",
                                 "X-Deadline-Ms: 30000\r\n");
        client.Close();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  // Give the loop a moment to observe the parting disconnects, then let
  // the runtime drain so the accounting below is stable.
  ts.server->Stop();
  ts.runtime->StopAccepting();
  EXPECT_TRUE(ts.runtime->AwaitIdle(std::chrono::seconds(30)));

  const ServingStatsSnapshot rt = ts.runtime->Stats();
  EXPECT_EQ(rt.submitted,
            rt.shed + rt.ok + rt.deadline_exceeded + rt.cancelled +
                rt.resource_exhausted + rt.corruption + rt.io_error +
                rt.other_error);
  const NetStatsSnapshot net = ts.server->NetStats();
  EXPECT_EQ(net.connections_accepted, net.connections_closed);
  EXPECT_GE(net.responses_ok, ok_count.load());
}

}  // namespace
}  // namespace net
}  // namespace xpwqo
