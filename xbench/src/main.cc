// xbench: one run of the end-to-end xpathd benchmark.
//
//   xbench --workload sweep|browse|lookup --seed N --seconds S --trace 0|1
//          --work DIR --out DIR [--git-sha SHA --git-dirty 0|1]
//          [--plant-mismatch]
//
// Generates the seeded 8-shard XMark corpus under DIR, computes the oracle,
// times set-up (build + save images, start xpathd, warm-up query) seven
// times, then drives xpathd over loopback. With --trace 0 it measures the
// gated closed-loop phase and prints the end-to-end metrics; with --trace 1
// it runs the diagnostic phases (traced vs untraced closed loop, open loop)
// and the in-process replay, and prints the per-layer metrics. The last
// stdout line is the result object; a detailed report precedes it. Any
// response that disagrees with the oracle makes the run fail (exit 1).
// --plant-mismatch corrupts one expected answer to prove that it does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/collection.h"
#include "http.h"
#include "load.h"
#include "persist/index_image.h"
#include "replay.h"
#include "server.h"
#include "trace.h"
#include "workload.h"
#include "xml/structural_scan.h"

namespace xbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 7;
constexpr int kConnections = 2;     // one per xpathd worker
constexpr int64_t kMinSamples = 1100;  // p99 keeps >= 10 samples beyond it
constexpr int kTicks = 30;             // xpathd CPU samples per phase
constexpr int kSegments = 10;          // gated figures: see MedianOverSegments

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work;
  std::string out;
  std::string git_sha = "unknown";
  bool git_dirty = false;
  bool plant_mismatch = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-mismatch") {
      a.plant_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10), have_seed = true;
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--work") a.work = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--git-sha") a.git_sha = v;
    else if (flag == "--git-dirty") a.git_dirty = v == "1";
    else Fatal("unknown flag " + flag);
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.work.empty() ||
      a.out.empty()) {
    Fatal("usage: xbench --workload W --seed N --seconds S --trace 0|1 "
          "--work DIR --out DIR");
  }
  return a;
}

struct SetupTimes {
  double load_s = 0, save_s = 0, start_s = 0, warmup_s = 0, total_s = 0;
};

// One set-up, from XML on disk to an xpathd that has answered a query on
// every shard: LoadAll at the default thread count, SaveCollection (which
// fsyncs every file), spawn + OpenCollection inside xpathd, warm-up.
SetupTimes SetupOnce(const Corpus& corpus, const std::string& images,
                     const std::string& work, XpathdProcess* server,
                     SpanLog* spans) {
  fs::remove_all(images);
  SetupTimes t;
  ScopedSpan root(spans, -1, "setup");
  const Clock::time_point t0 = Clock::now();
  {
    xpwqo::Collection collection;
    std::vector<xpwqo::Collection::BulkLoadSpec> specs;
    for (const Shard& s : corpus.shards) {
      xpwqo::LoadOptions options;
      options.backend = xpwqo::TreeBackend::kSuccinct;
      specs.push_back({s.name, s.path, options});
    }
    {
      ScopedSpan s(spans, -1, "xml.load_all", root.id());
      const auto report = collection.LoadAll(specs);
      if (report.failed > 0) Fatal("LoadAll failed for a shard");
    }
    t.load_s = SecondsSince(t0);
    ScopedSpan s(spans, -1, "persist.save", root.id());
    const xpwqo::Status saved = xpwqo::SaveCollection(collection, images);
    if (!saved.ok()) Fatal("SaveCollection: " + saved.ToString());
  }
  t.save_s = SecondsSince(t0) - t.load_s;
  {
    ScopedSpan s(spans, -1, "net.start_xpathd", root.id());
    if (!server->Start(XBENCH_XPATHD, images, work, work + "/xpathd.log")) {
      Fatal("xpathd did not start; see " + work + "/xpathd.log");
    }
  }
  t.start_s = SecondsSince(t0) - t.load_s - t.save_s;
  {
    ScopedSpan s(spans, -1, "net.warmup", root.id());
    HttpConn conn;
    HttpReply reply;
    if (!conn.Connect(server->port()) ||
        !conn.Send(GetRequest("/query?q=%2Fsite%2Fregions")) ||
        !conn.Read(&reply) || reply.status != 200) {
      Fatal("warm-up query failed");
    }
    size_t rows = 0;
    for (size_t at = reply.body.find("\"status\":\"OK\",\"nodes\":[");
         at != std::string::npos;
         at = reply.body.find("\"status\":\"OK\",\"nodes\":[", at + 1)) {
      ++rows;
    }
    if (rows != static_cast<size_t>(kShards)) Fatal("warm-up missed a shard");
  }
  t.total_s = SecondsSince(t0);
  t.warmup_s = t.total_s - t.load_s - t.save_s - t.start_s;
  return t;
}

int64_t DirBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<int64_t>(e.file_size());
  }
  return bytes;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Latency summary of one load phase (exact percentiles, sample counts).
std::string PhaseJson(const LoadResult& r) {
  JsonObject o;
  o.Int("attempted", r.attempted)
      .Int("ok", r.ok)
      .Int("within_limit", r.good)
      .Int("non200", r.non200)
      .Int("transport_errors", r.transport)
      .Int("oracle_mismatches", r.mismatches)
      .Num("seconds", r.seconds);
  for (const auto& [name, q] : {std::pair{"p50_ms", 0.50}, {"p90_ms", 0.90},
                                {"p99_ms", 0.99}, {"p999_ms", 0.999}}) {
    const auto p = ExactPercentile(r.latency_ms, q);
    o.Raw(name, p ? JsonObject()
                        .Num("value", p->value)
                        .Int("samples", p->samples)
                        .Int("beyond", p->beyond)
                        .Finish()
                  : "null");
  }
  if (!r.first_error.empty()) o.Str("first_error", r.first_error);
  return o.Finish();
}

double PercentileOr(const std::vector<double>& samples, double q,
                    const char* what) {
  const auto p = ExactPercentile(samples, q);
  if (!p) Fatal(std::string("too few samples for ") + what);
  return p->value;
}

// One sample taken at each tick of the closed-loop phase.
struct Tick {
  int64_t ns = 0;
  double xpathd_cpu_s = 0;
  CpuTicks host;  // for the hypervisor steal share between ticks
};

// The gated closed-loop figures. The phase is cut into equal time
// segments; each figure is the median of its per-segment values over the
// half of the segments with the least hypervisor steal. On a shared VM,
// steal and noisy neighbours come in bursts of seconds; a burst moves the
// segments it hits, which the selection and the median both discount,
// where it would move a figure pooled over the whole phase. Steal is a
// property of the host, not of the program, so selecting on it favours
// neither side of a comparison.
struct SegmentMedians {
  double p50_ms = 0, p90_ms = 0, capacity_qps = 0, cpu_us_per_query = 0;
  std::string json;  // the per-segment figures, for the report
};

// Segments are runs of consecutive ticks: at most kSegments of them, and
// fewer until every segment holds the 100 requests a p90 needs (the whole
// phase always does: it runs to kMinSamples).
SegmentMedians MedianOverSegments(const LoadResult& r,
                                  const std::vector<Tick>& ticks,
                                  double limit_ms) {
  const size_t intervals = ticks.size() - 1;
  size_t k = std::min<size_t>(kSegments, intervals);
  std::vector<Tick> marks;
  std::vector<std::vector<double>> latency;
  for (;; --k) {
    marks.clear();
    for (size_t s = 0; s <= k; ++s) marks.push_back(ticks[s * intervals / k]);
    latency.assign(k, {});
    for (size_t i = 0; i < r.latency_ms.size(); ++i) {
      // Inner boundaries at or before the completion = the segment index.
      size_t s = 0;
      while (s + 1 < k && marks[s + 1].ns <= r.done_ns[i]) ++s;
      latency[s].push_back(r.latency_ms[i]);
    }
    size_t smallest = r.latency_ms.size();
    for (const auto& seg : latency) smallest = std::min(smallest, seg.size());
    if (smallest >= 100 || k == 1) break;
  }
  std::vector<int64_t> ok(k), good(k);
  for (size_t s = 0; s < k; ++s) {
    for (const double ms : latency[s]) {
      if (!std::isfinite(ms)) continue;
      ok[s]++;
      if (ms <= limit_ms) good[s]++;
    }
  }
  std::vector<double> p50, p90, qps, cpu, steal;
  for (size_t s = 0; s < k; ++s) {
    const Tick& a = marks[s];
    const Tick& b = marks[s + 1];
    p50.push_back(PercentileOr(latency[s], 0.50, "segment p50"));
    p90.push_back(PercentileOr(latency[s], 0.90, "segment p90"));
    qps.push_back(good[s] / ((b.ns - a.ns) / 1e9));
    cpu.push_back(ok[s] > 0 ? (b.xpathd_cpu_s - a.xpathd_cpu_s) * 1e6 / ok[s] : 0);
    steal.push_back(b.host.total > a.host.total
                        ? static_cast<double>(b.host.steal - a.host.steal) /
                              static_cast<double>(b.host.total - a.host.total)
                        : 0);
  }
  std::vector<size_t> order(k);
  for (size_t s = 0; s < k; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return steal[x] < steal[y]; });
  order.resize((k + 1) / 2);
  std::sort(order.begin(), order.end());
  auto kept = [&](const std::vector<double>& v) {
    std::vector<double> out;
    for (const size_t s : order) out.push_back(v[s]);
    return Median(out);
  };
  auto list = [](const auto& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "",
                    static_cast<double>(v[i]));
      out += buf;
    }
    return out + "]";
  };
  SegmentMedians m;
  m.p50_ms = kept(p50);
  m.p90_ms = kept(p90);
  m.capacity_qps = kept(qps);
  m.cpu_us_per_query = kept(cpu);
  m.json = JsonObject()
               .Raw("steal_share", list(steal))
               .Raw("kept", list(order))
               .Raw("p50_ms", list(p50))
               .Raw("p90_ms", list(p90))
               .Raw("capacity_qps", list(qps))
               .Raw("server_cpu_us_per_query", list(cpu))
               .Finish();
  return m;
}

int Run(const Args& args) {
  const CpuTicks ticks0 = ReadCpuTicks();
  const std::string xml_dir = args.work + "/xml";
  const std::string images = args.work + "/images";
  fs::remove_all(args.work);
  fs::create_directories(xml_dir);
  fs::create_directories(args.out);

  // Inputs, before any timing: corpus, workload tables, oracle.
  const Corpus corpus = GenerateCorpus(args.seed, xml_dir);
  int id_counts[3];
  CountIds(corpus, id_counts);
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, id_counts, &workload)) {
    Fatal("unknown workload " + args.workload);
  }
  Oracle oracle = BuildOracle(corpus, workload, 4);
  if (args.plant_mismatch) {
    // Corrupt the expected answer of the first request connection 0 sends.
    RequestStream stream(args.seed, workload.name, 0);
    const Request r = workload.Next(&stream);
    std::vector<xpwqo::NodeId>& e =
        oracle.expected[r.query][r.shard < 0 ? 0 : r.shard];
    if (e.empty()) e.push_back(0);
    else e[0] += 1;
  }

  SpanLog spans;
  SpanLog* trace = args.trace ? &spans : nullptr;
  XpathdProcess server;
  std::vector<double> setup_s, load_s, save_s, start_s, warmup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.Stop();
    const SetupTimes t = SetupOnce(corpus, images, args.work, &server, trace);
    setup_s.push_back(t.total_s);
    load_s.push_back(t.load_s);
    save_s.push_back(t.save_s);
    start_s.push_back(t.start_s);
    warmup_s.push_back(t.warmup_s);
  }
  const double stored_ratio =
      static_cast<double>(DirBytes(images)) / static_cast<double>(corpus.xml_bytes);

  const uint16_t port = server.port();
  JsonObject metrics;
  JsonObject report;
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::string failure;
  // Counter growth between two /stats bodies.
  auto delta = [](const std::string& before, const std::string& after,
                  const char* key) {
    return JsonField(after, key) - JsonField(before, key);
  };
  auto tally = [&](const LoadResult& r) {
    attempted += r.attempted;
    failed += r.errors();
    if (r.mismatches > 0) correct = false;
    if (failure.empty()) failure = r.first_error;
  };

  if (!args.trace) {
    const std::string stats0 = FetchBody(port, "/stats");
    std::vector<Tick> ticks;
    const LoadResult closed = RunClosedLoop(
        port, workload, oracle, args.seed, kConnections, args.seconds,
        kMinSamples, nullptr, kTicks, [&] {
          ticks.push_back({NowNs(), server.CpuSeconds(), ReadCpuTicks()});
        });
    const std::string stats1 = FetchBody(port, "/stats");
    const double rss_mb = server.PeakRssMb();
    tally(closed);
    const SegmentMedians seg =
        MedianOverSegments(closed, ticks, workload.latency_limit_ms);
    report.Raw("closed_loop", PhaseJson(closed));
    report.Raw("closed_loop_segments", seg.json);
    report.Num("pooled_capacity_qps", closed.good / closed.seconds);
    report.Num("pooled_server_cpu_us_per_query",
               closed.ok > 0 ? (ticks.back().xpathd_cpu_s - ticks.front().xpathd_cpu_s) *
                                   1e6 / closed.ok
                             : 0);
    report.Int("cache_hits", delta(stats0, stats1, "query_cache_hits"));
    report.Int("cache_misses", delta(stats0, stats1, "query_cache_misses"));
    report.Num("error_rate", closed.attempted > 0
                                 ? static_cast<double>(closed.errors()) / closed.attempted
                                 : 1.0);
    AddMetric(&metrics, "setup_s", Median(setup_s), "s");
    AddMetric(&metrics, "p50_ms", seg.p50_ms, "ms");
    // The gated tail is p90: on a small VM the p99 of millisecond requests
    // tracks hypervisor steal more than the program (see README.md). p99
    // and p99.9 stay in the report, pooled, with their sample counts.
    AddMetric(&metrics, "p90_ms", seg.p90_ms, "ms");
    AddMetric(&metrics, "capacity_qps", seg.capacity_qps, "1/s");
    AddMetric(&metrics, "ok_ratio",
              closed.attempted > 0 ? static_cast<double>(closed.ok) / closed.attempted : 0,
              "ratio");
    AddMetric(&metrics, "server_cpu_us_per_query", seg.cpu_us_per_query, "us");
    AddMetric(&metrics, "server_rss_mb", rss_mb, "MB");
    AddMetric(&metrics, "stored_bytes_per_xml_byte", stored_ratio, "ratio");
  } else {
    // Tracing overhead: the same closed loop untraced, then traced.
    const double half = std::max(2.0, args.seconds / 2);
    const std::string stats0 = FetchBody(port, "/stats");
    const LoadResult plain = RunClosedLoop(port, workload, oracle, args.seed,
                                           kConnections, half, 0, nullptr);
    const std::string stats1 = FetchBody(port, "/stats");
    const LoadResult traced = RunClosedLoop(port, workload, oracle, args.seed,
                                            kConnections, half, 0, &spans);
    // Open loop at the workload's offered rate, long enough for a p99.
    const double ol_seconds =
        std::clamp(static_cast<double>(kMinSamples) / workload.offered_rate,
                   half, 45.0);
    const LoadResult open = RunOpenLoop(port, workload, oracle, args.seed,
                                        workload.offered_rate, ol_seconds);
    tally(plain);
    tally(traced);
    tally(open);
    report.Raw("closed_loop_untraced", PhaseJson(plain));
    report.Raw("closed_loop_traced", PhaseJson(traced));
    report.Raw("open_loop", PhaseJson(open));

    const double xml_mb = corpus.xml_bytes / (1024.0 * 1024.0);
    AddMetric(&metrics, "xml.load_mb_s", xml_mb / Median(load_s), "MB/s");
    AddMetric(&metrics, "persist.save_s", Median(save_s), "s");
    std::string error;
    if (!RunReplay(workload, oracle, images, args.seed, port, &spans, &metrics,
                   &error)) {
      correct = false;
      failed++;
      if (failure.empty()) failure = error;
    }
    const int64_t hits = delta(stats0, stats1, "query_cache_hits");
    const int64_t misses = delta(stats0, stats1, "query_cache_misses");
    AddMetric(&metrics, "core.cache_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
              "ratio");
    AddMetric(&metrics, "serve.shed",
              static_cast<double>(delta(stats0, stats1, "shed")),
              "count");
    AddMetric(&metrics, "serve.deadline",
              static_cast<double>(delta(stats0, stats1, "deadline_exceeded")),
              "count");
    AddMetric(&metrics, "load.ol_p50_ms", PercentileOr(open.latency_ms, 0.50, "open-loop p50"),
              "ms");
    AddMetric(&metrics, "load.ol_p99_ms", PercentileOr(open.latency_ms, 0.99, "open-loop p99"),
              "ms");
    AddMetric(&metrics, "load.late_ms", PercentileOr(open.late_ms, 0.99, "lateness p99"),
              "ms");
    const double p50_plain = PercentileOr(plain.latency_ms, 0.50, "p50");
    const double p50_traced = PercentileOr(traced.latency_ms, 0.50, "p50");
    AddMetric(&metrics, "trace.overhead_p50_ms", p50_traced - p50_plain, "ms");
    AddMetric(&metrics, "trace.overhead_qps",
              traced.ok / traced.seconds - plain.ok / plain.seconds, "1/s");
    report.Raw("spans", spans.SummaryJson());
    const std::string spans_path = args.out + "/" + args.workload + "-seed" +
                                   std::to_string(args.seed) + "-spans.jsonl";
    if (!spans.WriteJsonl(spans_path)) Fatal("cannot write " + spans_path);
    report.Str("spans_file", spans_path);
  }

  const int xpathd_exit = server.Stop();
  if (xpathd_exit != 0) {
    correct = false;
    if (failure.empty()) failure = "xpathd did not drain cleanly";
  }
  const CpuTicks ticks1 = ReadCpuTicks();

  report.Raw("setup", JsonObject()
                           .Num("median_total_s", Median(setup_s))
                           .Num("median_load_all_s", Median(load_s))
                           .Num("median_save_s", Median(save_s))
                           .Num("median_start_xpathd_s", Median(start_s))
                           .Num("median_warmup_s", Median(warmup_s))
                           .Int("reps", kSetupReps)
                           .Finish());
  report.Raw(
      "provenance",
      JsonObject()
          .Str("cpu_model", CpuModel())
          .Int("nproc", std::thread::hardware_concurrency())
          .Str("compiler", XBENCH_COMPILER)
          .Str("flags", XBENCH_FLAGS)
          .Str("scan_kernel", xpwqo::ScanKernelName(xpwqo::ActiveScanKernel()))
          .Str("git_sha", args.git_sha)
          .Bool("git_dirty", args.git_dirty)
          .Int("seed", static_cast<int64_t>(args.seed))
          .Str("workload", workload.name)
          .Num("offered_rate_per_s", workload.offered_rate)
          .Num("latency_limit_ms", workload.latency_limit_ms)
          .Num("steal_share",
               ticks1.total > ticks0.total
                   ? static_cast<double>(ticks1.steal - ticks0.steal) /
                         static_cast<double>(ticks1.total - ticks0.total)
                   : 0)
          .Int("xml_bytes", corpus.xml_bytes)
          .Num("oracle_build_s", oracle.build_seconds)
          .Finish());
  report.Str("oracle", correct ? "all responses match the baseline evaluator"
                               : "MISMATCH");
  if (!failure.empty()) report.Str("first_error", failure);
  const std::string report_text = report.Finish();
  const std::string report_path = args.out + "/" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", report_text.c_str());
    std::fclose(f);
  }
  std::printf("xbench-report %s\n", report_text.c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", std::max<int64_t>(attempted, 1))
                          .Int("failed", failed)
                          .Raw("metrics", metrics.Finish())
                          .Finish()
                          .c_str());
  std::fflush(stdout);
  fs::remove_all(args.work);
  // Errors (non-200s, timeouts) are measured, in ok_ratio; a wrong answer
  // fails the run.
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) { return xbench::Run(xbench::ParseArgs(argc, argv)); }
