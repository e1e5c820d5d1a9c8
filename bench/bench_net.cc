// End-to-end server benchmark: N closed-loop HTTP clients drive a Zipfian
// query mix over real sockets through xpathd's server stack (epoll loop →
// ServingRuntime → multi-shard XMark collection), at 1x, 2x and 4x of the
// runtime's capacity. Reports per-phase RPS and client-observed latency
// percentiles, plus the 503/504 counts that show the overload ladder
// working end to end: at 1x nearly everything is 200, at 4x the shedder
// refuses the excess while the p99 of admitted requests stays bounded.
// Each phase also records the runtime's own side from ServingRuntime::Stats()
// once it is drained: the admission/outcome accounting identity and the
// p99 of the jobs the runtime executed.
//
// Usage: bench_net [--quick] [--out PATH]
//   --quick  small shards + short phases (CI smoke run; scripts/check.sh)
//   --out    where to write the JSON report (default BENCH_net.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/serving_runtime.h"
#include "util/strings.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

using std::chrono::duration_cast;
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

std::string PercentEncode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size() * 3);
  for (const char c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

struct PhaseResult {
  int multiplier = 0;
  int clients = 0;
  double duration_s = 0;
  int64_t requests = 0;  // responses read by clients, any status
  int64_t ok = 0;        // 200
  int64_t shed = 0;      // 503
  int64_t deadline = 0;  // 504
  int64_t errors = 0;    // transport failures / unexpected statuses
  double rps = 0;        // ok per second
  int64_t p50_us = 0;    // client-observed, 200s only
  int64_t p99_us = 0;
  ServingStatsSnapshot runtime;  // runtime.Stats() after Shutdown()
  bool accounting_ok = false;    // submitted == shed + outcome_total()
};

PhaseResult RunPhase(const Collection& collection, int num_threads,
                     int multiplier, milliseconds duration,
                     const std::vector<std::string>& targets) {
  // A fresh runtime + server per phase: counters start at zero and no
  // queue backlog leaks across phases.
  ServingRuntimeOptions runtime_options;
  runtime_options.num_threads = num_threads;
  runtime_options.max_queue = static_cast<size_t>(num_threads);
  ServingRuntime runtime(&collection, runtime_options);
  net::HttpServer server(&collection, &runtime, {});
  PhaseResult phase;
  phase.multiplier = multiplier;
  phase.clients = num_threads * multiplier;
  phase.duration_s = duration.count() / 1000.0;
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return phase;
  }

  std::mutex merge_mu;
  std::vector<int64_t> latencies;
  std::atomic<int64_t> requests{0}, ok{0}, shed{0}, deadline_hits{0},
      errors{0};
  const steady_clock::time_point stop = steady_clock::now() + duration;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(phase.clients));
  for (int c = 0; c < phase.clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t rng = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(c) << 32);
      net::BlockingHttpClient client;
      if (!client.Connect(server.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      std::vector<int64_t> local;
      while (steady_clock::now() < stop) {
        const std::string& target = targets[ZipfPick(&rng)];
        const steady_clock::time_point t0 = steady_clock::now();
        auto resp = client.Get(target, "X-Deadline-Ms: 250\r\n");
        requests.fetch_add(1);
        if (!resp.ok()) {
          errors.fetch_add(1);
          if (!client.Connect(server.port()).ok()) return;
          continue;
        }
        if (resp->status == 200) {
          ok.fetch_add(1);
          local.push_back(
              duration_cast<microseconds>(steady_clock::now() - t0).count());
        } else if (resp->status == 503) {
          shed.fetch_add(1);
          // Back off like a real client instead of hot-spinning the
          // admission path.
          std::this_thread::sleep_for(microseconds(200));
        } else if (resp->status == 504) {
          deadline_hits.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  runtime.Shutdown();

  phase.runtime = runtime.Stats();
  phase.accounting_ok = phase.runtime.submitted ==
                        phase.runtime.shed + phase.runtime.outcome_total();
  phase.requests = requests.load();
  phase.ok = ok.load();
  phase.shed = shed.load();
  phase.deadline = deadline_hits.load();
  phase.errors = errors.load();
  phase.rps = static_cast<double>(phase.ok) / phase.duration_s;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    phase.p50_us = latencies[latencies.size() / 2];
    phase.p99_us = latencies[latencies.size() * 99 / 100];
  }
  return phase;
}

int Run(bool quick, const std::string& out_path) {
  const int shards = quick ? 3 : 6;
  const double shard_scale = quick ? 0.008 : 0.04;
  const milliseconds phase_duration(quick ? 300 : 2000);
  const int num_threads = 2;

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

  std::vector<std::string> targets;
  for (const char* xpath : kQueries) {
    targets.push_back("/query?q=" + PercentEncode(xpath));
  }

  // Overload ladder: capacity is num_threads closed-loop clients; 2x and
  // 4x oversubscribe the pool so queue wait, the deadline and the shedder
  // govern — now measured through the whole socket path.
  std::vector<PhaseResult> phases;
  for (const int multiplier : {1, 2, 4}) {
    std::printf("phase %dx: %d clients for %.2fs...\n", multiplier,
                num_threads * multiplier, phase_duration.count() / 1000.0);
    phases.push_back(RunPhase(collection, num_threads, multiplier,
                              phase_duration, targets));
    const PhaseResult& p = phases.back();
    std::printf(
        "  %ld requests, %.0f rps ok, p50 %ld us, p99 %ld us, "
        "%ld shed, %ld deadline, %ld errors\n"
        "  runtime: %ld submitted, %ld shed, %ld outcomes (%s), p99 %ld us\n",
        static_cast<long>(p.requests), p.rps, static_cast<long>(p.p50_us),
        static_cast<long>(p.p99_us), static_cast<long>(p.shed),
        static_cast<long>(p.deadline), static_cast<long>(p.errors),
        static_cast<long>(p.runtime.submitted),
        static_cast<long>(p.runtime.shed),
        static_cast<long>(p.runtime.outcome_total()),
        p.accounting_ok ? "balanced" : "BROKEN",
        static_cast<long>(p.runtime.latency_us.Percentile(0.99)));
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"net\",\n  \"quick\": %s,\n"
               "  \"server_threads\": %d,\n"
               "  \"collection\": {\"shards\": %d, \"nodes\": %lld},\n"
               "  \"phases\": [\n",
               quick ? "true" : "false", num_threads, shards,
               static_cast<long long>(total_nodes));
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::fprintf(
        out,
        "    {\"multiplier\": %d, \"clients\": %d, \"duration_s\": %.3f,\n"
        "     \"requests\": %lld, \"ok\": %lld, \"shed\": %lld,\n"
        "     \"deadline\": %lld, \"errors\": %lld, \"rps\": %.1f,\n"
        "     \"p50_us\": %lld, \"p99_us\": %lld,\n"
        "     \"runtime\": {\"submitted\": %lld, \"shed\": %lld, "
        "\"outcomes\": %lld, \"accounting_ok\": %s, \"p99_us\": %lld}}%s\n",
        p.multiplier, p.clients, p.duration_s,
        static_cast<long long>(p.requests), static_cast<long long>(p.ok),
        static_cast<long long>(p.shed), static_cast<long long>(p.deadline),
        static_cast<long long>(p.errors), p.rps,
        static_cast<long long>(p.p50_us), static_cast<long long>(p.p99_us),
        static_cast<long long>(p.runtime.submitted),
        static_cast<long long>(p.runtime.shed),
        static_cast<long long>(p.runtime.outcome_total()),
        p.accounting_ok ? "true" : "false",
        static_cast<long long>(p.runtime.latency_us.Percentile(0.99)),
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_net [--quick] [--out PATH]\n");
      return 2;
    }
  }
  return xpwqo::Run(quick, out_path);
}
