// Serving-runtime benchmark: N closed-loop client threads drive a Zipfian
// query mix through a ServingRuntime over a multi-shard XMark collection,
// at 1x, 2x and 4x of the runtime's capacity (workers + queue). Reports
// QPS and latency percentiles per phase, the shed/deadline counts that
// show graceful overload degradation (shedding kicks in under overload
// while admitted queries keep a bounded p99). The governance overhead is
// measured where the cursors are drained, in bench_eval_succinct.
//
// Usage: bench_serving [--quick] [--out PATH]
//   --quick  small shards + short phases (CI smoke run; scripts/check.sh)
//   --out    where to write the JSON report (default BENCH_serving.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "serve/serving_runtime.h"
#include "util/strings.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr const char* kQueries[] = {
    "//listitem//keyword",       // heavy sweep, many results
    "//keyword",                 // label scan
    "//parlist//listitem",       // recursive chain
    "//mailbox//mail",           // medium selectivity
    "//annotation//description", // closed-auction subtree
    "//person//homepage",        // sparse
    "//text//emph",              // text markup
    "//item//mailbox",           // shallow chain
};
constexpr int kNumQueries = 8;

/// Zipf(1) over the query list: rank r gets weight 1/(r+1).
int ZipfPick(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  const double u = static_cast<double>((*state >> 11) & ((1ull << 53) - 1)) /
                   static_cast<double>(1ull << 53);
  static double cumulative[kNumQueries];
  static const bool init = [] {
    double total = 0;
    for (int i = 0; i < kNumQueries; ++i) total += 1.0 / (i + 1);
    double acc = 0;
    for (int i = 0; i < kNumQueries; ++i) {
      acc += 1.0 / (i + 1) / total;
      cumulative[i] = acc;
    }
    return true;
  }();
  (void)init;
  for (int i = 0; i < kNumQueries; ++i) {
    if (u < cumulative[i]) return i;
  }
  return kNumQueries - 1;
}

struct PhaseResult {
  int multiplier = 0;
  int clients = 0;
  double duration_s = 0;
  double qps = 0;  // completed-OK jobs per second
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  ServingStatsSnapshot stats;
};

PhaseResult RunPhase(const Collection& collection,
                     const std::vector<std::shared_ptr<const PreparedQuery>>&
                         prepared,
                     int multiplier, int clients, milliseconds duration,
                     milliseconds deadline) {
  ServingRuntimeOptions options;
  options.num_threads = 4;
  options.max_queue = 4;
  ServingRuntime runtime(&collection, options);

  const steady_clock::time_point stop = steady_clock::now() + duration;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(c) << 32);
      while (steady_clock::now() < stop) {
        ServeRequest request;
        request.context = QueryContext::WithTimeout(deadline);
        const ServeResult result =
            runtime.Execute(prepared[ZipfPick(&rng)], request);
        if (result.status.code() == StatusCode::kResourceExhausted) {
          // Shed: back off like a real client instead of hot-spinning
          // the admission path.
          std::this_thread::sleep_for(microseconds(200));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  runtime.Shutdown();

  PhaseResult phase;
  phase.multiplier = multiplier;
  phase.clients = clients;
  phase.duration_s = duration.count() / 1000.0;
  phase.stats = runtime.Stats();
  phase.qps = static_cast<double>(phase.stats.ok) / phase.duration_s;
  phase.p50_us = phase.stats.latency_us.Percentile(0.5);
  phase.p99_us = phase.stats.latency_us.Percentile(0.99);
  return phase;
}

int Run(bool quick, const std::string& out_path) {
  const int shards = quick ? 3 : 6;
  const double shard_scale = quick ? 0.008 : 0.04;
  const milliseconds phase_duration(quick ? 250 : 2000);
  // Generous against the ~100 ms multi-shard sweeps at 1x, so base load
  // mostly completes; under 4x overload the queue wait eats it and the
  // deadline + shedding paths take over.
  const milliseconds deadline(250);

  Collection collection;
  int64_t total_nodes = 0;
  std::printf("building %d XMark shards (scale %.3g each)...\n", shards,
              shard_scale);
  for (int s = 0; s < shards; ++s) {
    XMarkOptions opt;
    opt.scale = shard_scale;
    opt.seed = 20100324 + static_cast<uint64_t>(s);
    Document doc = GenerateXMark(opt);
    total_nodes += doc.num_nodes();
    LoadOptions load;
    load.backend = TreeBackend::kSuccinct;
    const Status added = collection.AddXmlString(
        "shard" + std::to_string(s), SerializeXml(doc), load);
    if (!added.ok()) {
      std::fprintf(stderr, "shard build failed: %s\n",
                   added.ToString().c_str());
      return 1;
    }
  }
  std::printf("collection: %d shards, %s nodes\n", shards,
              WithCommas(static_cast<uint64_t>(total_nodes)).c_str());

  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const char* xpath : kQueries) {
    auto query = collection.PrepareCached(xpath);
    if (!query.ok()) {
      std::fprintf(stderr, "prepare failed for %s: %s\n", xpath,
                   query.status().ToString().c_str());
      return 1;
    }
    prepared.push_back(*query);
  }

  // Overload ladder: capacity is num_threads=4 closed-loop clients; 2x
  // and 4x oversubscribe the pool so the queue and then the shedder work.
  std::vector<PhaseResult> phases;
  for (const int multiplier : {1, 2, 4}) {
    const int clients = 4 * multiplier;
    std::printf("phase %dx: %d clients for %.2fs...\n", multiplier, clients,
                phase_duration.count() / 1000.0);
    phases.push_back(RunPhase(collection, prepared, multiplier, clients,
                              phase_duration, deadline));
    const PhaseResult& p = phases.back();
    std::printf(
        "  %6.0f qps  p50 %6lld us  p99 %6lld us  ok %lld  shed %lld  "
        "deadline %lld  submitted %lld\n",
        p.qps, static_cast<long long>(p.p50_us),
        static_cast<long long>(p.p99_us),
        static_cast<long long>(p.stats.ok),
        static_cast<long long>(p.stats.shed),
        static_cast<long long>(p.stats.deadline_exceeded),
        static_cast<long long>(p.stats.submitted));
  }

  bool accounting_ok = true;
  for (const PhaseResult& p : phases) {
    accounting_ok = accounting_ok &&
                    p.stats.shed + p.stats.outcome_total() ==
                        p.stats.submitted;
  }
  const PhaseResult& overload = phases.back();
  std::printf("overload (4x): %lld shed, p99 %lld us, accounting %s\n",
              static_cast<long long>(overload.stats.shed),
              static_cast<long long>(overload.p99_us),
              accounting_ok ? "balanced" : "BROKEN");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"serving\",\n  \"quick\": %s,\n"
               "  \"shards\": %d,\n  \"nodes\": %lld,\n"
               "  \"num_threads\": 4,\n  \"max_queue\": 4,\n"
               "  \"deadline_ms\": %lld,\n"
               "  \"accounting_ok\": %s,\n"
               "  \"overload\": [\n",
               quick ? "true" : "false", shards,
               static_cast<long long>(total_nodes),
               static_cast<long long>(deadline.count()),
               accounting_ok ? "true" : "false");
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::fprintf(
        out,
        "    {\"multiplier\": %d, \"clients\": %d, \"duration_s\": %.3f, "
        "\"qps\": %.1f, \"p50_us\": %lld, \"p99_us\": %lld,\n"
        "     \"submitted\": %lld, \"ok\": %lld, \"shed\": %lld, "
        "\"deadline_exceeded\": %lld, \"cancelled\": %lld, "
        "\"docs_failed\": %lld, \"retries\": %lld,\n"
        "     \"cache_hits\": %lld, \"cache_misses\": %lld}%s\n",
        p.multiplier, p.clients, p.duration_s, p.qps,
        static_cast<long long>(p.p50_us), static_cast<long long>(p.p99_us),
        static_cast<long long>(p.stats.submitted),
        static_cast<long long>(p.stats.ok),
        static_cast<long long>(p.stats.shed),
        static_cast<long long>(p.stats.deadline_exceeded),
        static_cast<long long>(p.stats.cancelled),
        static_cast<long long>(p.stats.docs_failed),
        static_cast<long long>(p.stats.retries),
        static_cast<long long>(p.stats.query_cache_hits),
        static_cast<long long>(p.stats.query_cache_misses),
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return accounting_ok ? 0 : 1;
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  return xpwqo::Run(quick, out_path);
}
