#include "replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common.h"
#include "core/collection.h"
#include "http.h"
#include "net/http.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"
#include "sta/minimize.h"
#include "xpath/compile_sta.h"

namespace xbench {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

double Us(int64_t ns) { return ns / 1e3; }

// Median of `reps` timings of fn(), in microseconds.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    t.push_back(Us(NowNs() - t0));
  }
  return Median(t);
}

// Matches `nodes` of shard s against the oracle (prefix under a limit).
bool Matches(const Oracle& oracle, const Request& r, int s,
             const std::vector<xpwqo::NodeId>& nodes) {
  const std::vector<xpwqo::NodeId>& want = oracle.expected[r.query][s];
  const size_t n = r.limit < 0 ? want.size()
                               : std::min(want.size(), static_cast<size_t>(r.limit));
  return nodes.size() == n && std::equal(nodes.begin(), nodes.end(), want.begin());
}

}  // namespace

bool RunReplay(const Workload& workload, const Oracle& oracle,
               const std::string& images_dir, uint64_t seed, uint16_t port,
               SpanLog* spans, JsonObject* metrics, std::string* error) {
  // --- persist: open the saved collection and touch every shard.
  const int64_t open_t0 = NowNs();
  xpwqo::Collection collection;
  std::vector<const xpwqo::Engine*> engines;
  {
    ScopedSpan open_span(spans, -1, "persist.open");
    auto opened = [&] {
      ScopedSpan s(spans, -1, "persist.open_collection", open_span.id());
      return xpwqo::OpenCollection(images_dir);
    }();
    if (!opened.ok()) Fatal("OpenCollection: " + opened.status().ToString());
    collection = std::move(*opened);
    for (const std::string& name : collection.names()) {
      ScopedSpan s(spans, -1, "persist.first_get", open_span.id());
      auto engine = collection.Get(name);
      if (!engine.ok()) Fatal("Get " + name + ": " + engine.status().ToString());
      engines.push_back(*engine);
    }
  }
  const double open_s = (NowNs() - open_t0) / 1e9;

  xpwqo::IndexMemoryReport memory;
  for (const xpwqo::Engine* e : engines) {
    const xpwqo::IndexMemoryReport r = e->IndexMemory();
    memory.tree_bytes += r.tree_bytes;
    memory.label_index_bytes += r.label_index_bytes;
    memory.text_store_bytes += r.text_store_bytes;
  }
  const double verify_ms = MedianUs(3, [&] {
                             ScopedSpan s(spans, -1, "persist.verify");
                             const xpwqo::VerifyReport v = collection.VerifyAll();
                             if (v.quarantined > 0) Fatal("VerifyAll quarantined a shard");
                           }) /
                           1e3;

  // --- the replayed requests: the head of stream 0.
  RequestStream stream(seed, workload.name, 0);
  std::vector<Request> requests(workload.replay_requests);
  for (Request& r : requests) r = workload.Next(&stream);
  std::vector<int> distinct;
  for (const Request& r : requests) distinct.push_back(r.query);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  // --- xpath / sta: uncached compilation per distinct string.
  const int alphabet_before = collection.alphabet_ptr()->size();
  std::map<int, std::shared_ptr<const xpwqo::PreparedQuery>> prepared;
  double prepare_sum = 0, tdsta_sum = 0;
  for (const int q : distinct) {
    const std::string& text = workload.queries[q];
    std::shared_ptr<const xpwqo::PreparedQuery> keep;
    prepare_sum += MedianUs(3, [&] {
      ScopedSpan s(spans, -1, "xpath.prepare");
      auto p = xpwqo::PreparedQuery::Prepare(text, collection.alphabet_ptr());
      if (!p.ok()) Fatal("Prepare " + text + ": " + p.status().ToString());
      keep = std::make_shared<const xpwqo::PreparedQuery>(std::move(*p));
    });
    prepared[q] = keep;
    // The top-down STA plan Prepare builds and no serving path runs.
    const xpwqo::Path& plan = keep->relaxed_path();
    if (xpwqo::IsTdstaCompilable(plan)) {
      tdsta_sum += MedianUs(3, [&] {
        ScopedSpan s(spans, -1, "sta.tdsta");
        auto sta = xpwqo::CompileToTdsta(plan, collection.alphabet_ptr().get());
        if (!sta.ok()) Fatal("CompileToTdsta: " + sta.status().ToString());
        const xpwqo::Sta minimal = xpwqo::MinimizeTopDown(*sta);
        s.Count("states", minimal.num_states());
      });
    }
  }

  // --- core / asta: cursors over every target shard, as the runtime
  // drives them (stop at the limit).
  std::vector<double> eval_us(requests.size()), first_us;
  int64_t visited = 0, jumps = 0, memo_hits = 0, returned = 0;
  int64_t checked = 0, rejected = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    ScopedSpan eval(spans, static_cast<int64_t>(i), "core.eval");
    const int first = r.shard < 0 ? 0 : r.shard;
    const int count = r.shard < 0 ? kShards : 1;
    int64_t sum_ns = 0;
    for (int s = first; s < first + count; ++s) {
      ScopedSpan cur(spans, static_cast<int64_t>(i), "core.cursor", eval.id());
      const int64_t t0 = NowNs();
      std::vector<xpwqo::NodeId> nodes;
      xpwqo::CursorStats stats;
      {
        auto cursor = collection.OpenCursor(collection.names()[s], *prepared[r.query]);
        if (!cursor.ok()) Fatal("OpenCursor: " + cursor.status().ToString());
        const xpwqo::NodeId head = cursor->Next();
        first_us.push_back(Us(NowNs() - t0));
        if (spans) {
          spans->Record(static_cast<int64_t>(i), "core.first_result", cur.id(), t0,
                        NowNs());
        }
        for (xpwqo::NodeId n = head; n != xpwqo::kNullNode; n = cursor->Next()) {
          nodes.push_back(n);
          if (r.limit > 0 && static_cast<int>(nodes.size()) == r.limit) break;
        }
        stats = cursor->TakeStats();
      }
      sum_ns += NowNs() - t0;
      const int64_t v = stats.eval.nodes_visited + stats.hybrid.nodes_visited;
      cur.Count("visited", v);
      cur.Count("jumps", stats.eval.jumps);
      cur.Count("memo_hits", stats.eval.memo_hits);
      cur.Count("returned", static_cast<int64_t>(nodes.size()));
      cur.Count("filter_checked", stats.filter_checked);
      cur.Count("filter_rejected", stats.filter_rejected);
      visited += v;
      jumps += stats.eval.jumps;
      memo_hits += stats.eval.memo_hits;
      returned += static_cast<int64_t>(nodes.size());
      checked += stats.filter_checked;
      rejected += stats.filter_rejected;
      if (!Matches(oracle, r, s, nodes)) {
        *error = "in-process cursor disagrees with the oracle on " +
                 RequestTarget(workload, r);
        return false;
      }
    }
    eval_us[i] = Us(sum_ns);
  }
  const int alphabet_after = collection.alphabet_ptr()->size();

  // --- serve: the runtime with xpathd's defaults, one request at a time.
  std::vector<double> serve_self_us, exec_string_us(requests.size());
  {
    xpwqo::ServingRuntimeOptions options;
    options.num_threads = 2;
    options.max_queue = 64;
    options.scrub_interval = std::chrono::milliseconds(1000);
    xpwqo::ServingRuntime runtime(&collection, options);
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      xpwqo::ServeRequest sreq;
      sreq.limit = r.limit;
      if (r.shard >= 0) sreq.document = collection.names()[r.shard];
      const int64_t t0 = NowNs();
      ScopedSpan s(spans, static_cast<int64_t>(i), "serve.execute");
      const xpwqo::ServeResult result = runtime.Execute(prepared[r.query], sreq);
      serve_self_us.push_back(Us(NowNs() - t0) - eval_us[i]);
      if (!result.status.ok()) Fatal("Execute: " + result.status.ToString());
    }
    // The string path, which compiles through the collection's cache on a
    // miss exactly as the server does; warmed by one pass first so its
    // cache holds the steady state.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < requests.size(); ++i) {
        const Request& r = requests[i];
        xpwqo::ServeRequest sreq;
        sreq.limit = r.limit;
        if (r.shard >= 0) sreq.document = collection.names()[r.shard];
        const int64_t t0 = NowNs();
        auto result = runtime.Execute(workload.queries[r.query], sreq);
        if (pass == 1) exec_string_us[i] = Us(NowNs() - t0);
        if (!result.ok() || !result->status.ok()) Fatal("Execute(string) failed");
      }
    }
  }

  // --- net: request parsing, then unloaded round trips to xpathd.
  std::vector<std::string> raw;
  for (const Request& r : requests) raw.push_back(GetRequest(RequestTarget(workload, r)));
  constexpr int kParseLoops = 20;
  int64_t parse_ns = 0;
  {
    ScopedSpan s(spans, -1, "net.parse");
    const int64_t t0 = NowNs();
    for (int loop = 0; loop < kParseLoops; ++loop) {
      for (const std::string& bytes : raw) {
        xpwqo::net::HttpRequest req;
        size_t consumed = 0;
        int status = 0;
        std::string err;
        if (xpwqo::net::ParseHttpRequest(bytes, 16 * 1024, &req, &consumed, &status, &err) !=
            xpwqo::net::ParseOutcome::kDone) {
          Fatal("ParseHttpRequest rejected " + bytes);
        }
      }
    }
    parse_ns = NowNs() - t0;
    s.Count("parsed", kParseLoops * static_cast<int64_t>(raw.size()));
  }
  std::vector<double> net_self_us;
  int64_t response_bytes = 0;
  {
    HttpConn conn;
    if (!conn.Connect(port)) Fatal("replay: cannot connect to xpathd");
    for (size_t i = 0; i < requests.size(); ++i) {
      ScopedSpan s(spans, static_cast<int64_t>(i), "net.roundtrip");
      const int64_t t0 = NowNs();
      HttpReply reply;
      if (!conn.Send(raw[i]) || !conn.Read(&reply)) Fatal("replay: HTTP failure");
      net_self_us.push_back(Us(NowNs() - t0) - exec_string_us[i]);
      response_bytes += reply.wire_bytes;
      s.Count("bytes", reply.wire_bytes);
      const Check check = CheckResponse(workload, oracle, requests[i], reply.body);
      if (reply.status != 200 || !check.ok) {
        *error = "unloaded HTTP answer disagrees with the oracle: " + check.why;
        return false;
      }
    }
  }

  const double n = static_cast<double>(requests.size());
  AddMetric(metrics, "persist.open_s", open_s, "s");
  AddMetric(metrics, "persist.verify_ms", verify_ms, "ms");
  AddMetric(metrics, "index.tree_mb", memory.tree_bytes / kMB, "MB");
  AddMetric(metrics, "index.postings_mb", memory.label_index_bytes / kMB, "MB");
  AddMetric(metrics, "index.text_mb", memory.text_store_bytes / kMB, "MB");
  AddMetric(metrics, "xpath.prepare_us", prepare_sum / distinct.size(), "us");
  AddMetric(metrics, "sta.tdsta_us", tdsta_sum / distinct.size(), "us");
  AddMetric(metrics, "xpath.alphabet_growth", alphabet_after - alphabet_before, "count");
  AddMetric(metrics, "core.first_result_us", Median(first_us), "us");
  AddMetric(metrics, "core.eval_us", Median(eval_us), "us");
  AddMetric(metrics, "asta.visited_per_result",
            returned > 0 ? static_cast<double>(visited) / returned : 0, "ratio");
  AddMetric(metrics, "asta.jumps_per_request", jumps / n, "count");
  AddMetric(metrics, "asta.memo_hits_per_request", memo_hits / n, "count");
  AddMetric(metrics, "core.filter_checked_per_request", checked / n, "count");
  AddMetric(metrics, "core.filter_useful_ratio",
            checked > 0 ? 1.0 - static_cast<double>(rejected) / checked : 1.0, "ratio");
  AddMetric(metrics, "serve.self_us", Median(serve_self_us), "us");
  AddMetric(metrics, "net.parse_us", Us(parse_ns) / (kParseLoops * n), "us");
  AddMetric(metrics, "net.self_us", Median(net_self_us), "us");
  AddMetric(metrics, "net.response_kb", response_bytes / n / 1024.0, "KB");
  return true;
}

}  // namespace xbench
