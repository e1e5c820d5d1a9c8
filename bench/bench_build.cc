// Ingestion benchmark: parse+build throughput (MB/s) and peak RSS for the
// load pipelines on an XMark-style XML file —
//
//   pointer          streamed events -> TreeBuilder -> Document + TreeIndex
//   succinct_stream  streamed events -> {SuccinctBuilder, LabelPostings-
//                    Builder}, no pointer Document ever materialized
//   image_open       reopen a saved index image (persist/): one mmap +
//                    checksum validation + in-memory directory rebuild,
//                    no XML parse at all; also reports the first-query
//                    latency on the freshly mapped engine. The acceptance
//                    bar: >= 20x faster than succinct_stream's rebuild.
//
// Each pipeline runs in a forked child so its peak RSS (VmHWM delta from
// the child's post-fork baseline) is isolated from sibling measurements and
// allocator caching.
//
// Usage: bench_build [--quick] [--out PATH]
//   --quick  small document + small chunk size, so the CI smoke run also
//            exercises the streaming loader's refill/boundary paths
//   --out    where to write the JSON report (default BENCH_build.json)
// XPWQO_SCALE overrides the document scale (default 0.45, ~1.1M nodes).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "core/engine.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "util/strings.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/structural_scan.h"

namespace xpwqo {
namespace {

/// Current peak RSS of this process in KiB (Linux VmHWM; getrusage
/// fallback would report the same number but /proc keeps this portable
/// across libc versions).
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a load pipeline reports back from its forked child: the node count
/// plus the label-index memory accounting (compressed postings vs the
/// plain-vector baseline they replaced). nodes < 0 flags a failed load.
struct LoadStats {
  long nodes = -1;
  size_t label_index_bytes = 0;
  size_t label_index_vector_bytes = 0;
  double first_query_us = 0;  // image_open only: first Run() latency
  // If >= 0, overrides the phase wall time: image_open times the open by
  // itself so the first-query measurement does not count as load time.
  double load_ms = -1;
};

struct PhaseResult {
  std::string name;
  double ms = 0;
  double peak_delta_mb = 0;  // peak RSS growth during the load
  long nodes = 0;
  double label_index_mb = 0;         // compressed postings
  double label_index_vector_mb = 0;  // same lists as plain vectors
  double first_query_us = 0;
  bool ok = false;
};

/// Runs `load` in a forked child, reporting wall time, the child's peak-RSS
/// growth over its post-fork baseline, the node count the load saw, and the
/// label-index memory accounting.
PhaseResult MeasureForked(const std::string& name,
                          const std::function<LoadStats()>& load) {
  PhaseResult result;
  result.name = name;
  int fds[2];
  if (pipe(fds) != 0) return result;
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    const long baseline_kb = PeakRssKb();
    const double start = NowMs();
    const LoadStats stats = load();
    const double ms = stats.load_ms >= 0 ? stats.load_ms : NowMs() - start;
    const long peak_kb = PeakRssKb();
    double payload[6] = {ms,
                         static_cast<double>(peak_kb - baseline_kb),
                         static_cast<double>(stats.nodes),
                         static_cast<double>(stats.label_index_bytes),
                         static_cast<double>(stats.label_index_vector_bytes),
                         stats.first_query_us};
    ssize_t written = write(fds[1], payload, sizeof(payload));
    (void)written;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  double payload[6] = {0, 0, 0, 0, 0, 0};
  ssize_t got = read(fds[0], payload, sizeof(payload));
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (got == sizeof(payload) && WIFEXITED(wstatus) &&
      WEXITSTATUS(wstatus) == 0) {
    result.ms = payload[0];
    result.peak_delta_mb = payload[1] / 1024.0;
    result.nodes = static_cast<long>(payload[2]);
    result.label_index_mb = payload[3] / 1e6;
    result.label_index_vector_mb = payload[4] / 1e6;
    result.first_query_us = payload[5];
    result.ok = true;
  }
  return result;
}

/// LoadStats from an engine's index-memory report.
LoadStats StatsOfEngine(const Engine& engine) {
  const IndexMemoryReport report = engine.IndexMemory();
  return {engine.num_nodes(), report.label_index_bytes,
          report.label_index_vector_bytes};
}

int Run(bool quick, const std::string& out_path) {
  XMarkOptions opt;
  opt.scale = XMarkScaleFromEnv(quick ? 0.02 : 0.45);
  const std::string path = "/tmp/xpwqo_bench_build.xml";
  std::printf("generating XMark document (scale %.3g)...\n", opt.scale);
  // Generate + serialize in a forked child: the parent's heap stays tiny,
  // so each measurement child's baseline is clean rather than inheriting a
  // retained allocator arena that would absorb (and hide) its allocations.
  PhaseResult gen = MeasureForked("generate", [&opt, &path]() -> LoadStats {
    Document doc = GenerateXMark(opt);
    Status st = WriteXmlFile(doc, path);
    return {st.ok() ? doc.num_nodes() : -1, 0, 0};
  });
  if (!gen.ok || gen.nodes < 0) {
    std::fprintf(stderr, "cannot generate %s\n", path.c_str());
    return 1;
  }
  const long nodes = gen.nodes;
  size_t xml_bytes = 0;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    xml_bytes = static_cast<size_t>(probe.tellg());
  }
  std::printf("document: %s nodes, %.1f MB XML\n",
              WithCommas(static_cast<uint64_t>(nodes)).c_str(),
              xml_bytes / 1e6);
  if (!quick && nodes < 1000000) {
    std::printf("warning: fewer than 1M nodes; raise XPWQO_SCALE\n");
  }

  // Quick runs shrink the chunk so the ~0.8 MB document still crosses many
  // boundaries and the refill path gets exercised in CI.
  const size_t chunk_bytes = quick ? size_t{4096} : size_t{1} << 20;
  std::vector<PhaseResult> results;
  results.push_back(
      MeasureForked("pointer", [&path, chunk_bytes]() -> LoadStats {
        LoadOptions load;
        load.parse.chunk_bytes = chunk_bytes;
        auto engine = Engine::FromXmlFile(path, load);
        return engine.ok() ? StatsOfEngine(*engine) : LoadStats{};
      }));
  results.push_back(
      MeasureForked("succinct_stream", [&path, chunk_bytes]() -> LoadStats {
        LoadOptions load;
        load.backend = TreeBackend::kSuccinct;
        load.parse.chunk_bytes = chunk_bytes;
        auto engine = Engine::FromXmlFile(path, load);
        return engine.ok() ? StatsOfEngine(*engine) : LoadStats{};
      }));

  // Save an index image once (in a child, so the build's RSS stays out of
  // the parent), then measure reopening it: mmap + validation + directory
  // rebuilds, plus the first query on the freshly mapped engine.
  const std::string image_dir = "/tmp/xpwqo_bench_build_image";
  PhaseResult saved = MeasureForked(
      "save_image", [&path, chunk_bytes, &image_dir]() -> LoadStats {
        LoadOptions load;
        load.backend = TreeBackend::kSuccinct;
        load.parse.chunk_bytes = chunk_bytes;
        auto engine = Engine::FromXmlFile(path, load);
        if (!engine.ok() || !SaveIndexImage(*engine, image_dir).ok()) {
          return {};
        }
        return StatsOfEngine(*engine);
      });
  if (!saved.ok || saved.nodes != nodes) {
    std::fprintf(stderr, "cannot save the index image\n");
    return 1;
  }
  results.push_back(MeasureForked("image_open", [&image_dir]() -> LoadStats {
    const double open_start = NowMs();
    auto engine = OpenIndexImage(image_dir);
    const double open_ms = NowMs() - open_start;
    if (!engine.ok()) return {};
    LoadStats stats = StatsOfEngine(*engine);
    stats.load_ms = open_ms;
    const double start = NowMs();
    auto result = engine->Run("//keyword");
    if (!result.ok()) return {};
    stats.first_query_us = (NowMs() - start) * 1e3;
    return stats;
  }));

  // Stage-1 scanner in isolation: raw structural-index throughput over the
  // same bytes the parse pipelines consume. Best of three passes so the
  // number reflects the kernel, not the first pass's page faults.
  double scan_mb_per_s = 0;
  size_t scan_entries = 0;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string content = ss.str();
    StructuralTape tape;
    double best_ms = 0;
    for (int rep = 0; rep < 3; ++rep) {
      tape.Clear();
      const double start = NowMs();
      ScanStructural(content.data(), content.size(), 0, &tape);
      const double ms = NowMs() - start;
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    scan_entries = tape.TotalEntries();
    if (best_ms > 0) scan_mb_per_s = content.size() / 1e6 / (best_ms / 1e3);
  }
  const char* scan_kernel = ScanKernelName(ActiveScanKernel());
  std::printf("\nsimd_scan (%s): %.0f MB/s, %zu structural indices\n",
              scan_kernel, scan_mb_per_s, scan_entries);

  // Bulk loading: N copies of the document through Collection::LoadAll at
  // 1/2/4/8 threads, each in a forked child. The shards are byte-identical
  // copies, so per-thread work is uniform and the scaling numbers measure
  // the pipeline (shared-alphabet interning is the only synchronized
  // point), not shard skew.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const int kShards = 8;
  std::vector<std::string> shard_paths;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string content = ss.str();
    for (int i = 0; i < kShards; ++i) {
      shard_paths.push_back("/tmp/xpwqo_bench_shard_" + std::to_string(i) +
                            ".xml");
      std::ofstream out_shard(shard_paths.back(), std::ios::binary);
      out_shard << content;
    }
  }
  struct BulkRow {
    unsigned threads;
    double ms = 0;
    double mb_per_s = 0;
    double speedup = 0;
    double efficiency = 0;
    bool ok = false;
  };
  std::vector<BulkRow> bulk_rows;
  std::printf("\nbulk_load: %d shards x %.1f MB (%u hardware threads)\n",
              kShards, xml_bytes / 1e6, hardware_threads);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    PhaseResult r = MeasureForked(
        "bulk_load_" + std::to_string(threads),
        [&shard_paths, threads, chunk_bytes, nodes]() -> LoadStats {
          std::vector<Collection::BulkLoadSpec> specs;
          for (size_t i = 0; i < shard_paths.size(); ++i) {
            Collection::BulkLoadSpec spec;
            spec.name = "shard" + std::to_string(i);
            spec.path = shard_paths[i];
            spec.options.backend = TreeBackend::kSuccinct;
            spec.options.parse.chunk_bytes = chunk_bytes;
            specs.push_back(std::move(spec));
          }
          Collection library;
          const double start = NowMs();
          Collection::BulkLoadReport report = library.LoadAll(specs, threads);
          const double ms = NowMs() - start;
          if (report.failed != 0 ||
              report.loaded != shard_paths.size()) {
            return {};
          }
          LoadStats stats;
          stats.nodes = nodes;  // per-shard count; signals success upstream
          stats.load_ms = ms;
          return stats;
        });
    BulkRow row;
    row.threads = threads;
    row.ok = r.ok && r.nodes == nodes;
    row.ms = r.ms;
    if (row.ok && r.ms > 0) {
      row.mb_per_s = kShards * (xml_bytes / 1e6) / (r.ms / 1e3);
      if (!bulk_rows.empty() && bulk_rows[0].ok && bulk_rows[0].ms > 0) {
        row.speedup = bulk_rows[0].ms / r.ms;
        row.efficiency = row.speedup / threads;
      } else if (threads == 1) {
        row.speedup = 1.0;
        row.efficiency = 1.0;
      }
    }
    std::printf("  %u thread%s %10.1f ms %8.1f MB/s  speedup %.2fx  "
                "efficiency %.0f%%\n",
                threads, threads == 1 ? ": " : "s:", row.ms, row.mb_per_s,
                row.speedup, row.efficiency * 100);
    bulk_rows.push_back(row);
  }
  const bool bulk_ok =
      std::all_of(bulk_rows.begin(), bulk_rows.end(),
                  [](const BulkRow& r) { return r.ok; });

  // A failed fork/child leaves ms == 0; keep the division (and the JSON
  // below) finite.
  auto mb_per_s = [xml_bytes](const PhaseResult& r) {
    return r.ms > 0 ? xml_bytes / 1e6 / (r.ms / 1e3) : 0.0;
  };
  std::printf("\n%-16s %10s %10s %12s %10s %10s %12s\n", "pipeline", "ms",
              "MB/s", "peak-MB", "lidx-MB", "lvec-MB", "nodes");
  bool all_ok = true;
  for (const PhaseResult& r : results) {
    all_ok = all_ok && r.ok && r.nodes == nodes;
    std::printf("%-16s %10.1f %10.1f %12.1f %10.2f %10.2f %12s\n",
                r.name.c_str(), r.ms, mb_per_s(r), r.peak_delta_mb,
                r.label_index_mb, r.label_index_vector_mb,
                WithCommas(static_cast<uint64_t>(std::max(0L, r.nodes)))
                    .c_str());
  }
  auto pipeline = [&results](const char* name) -> const PhaseResult& {
    return *std::find_if(
        results.begin(), results.end(),
        [name](const PhaseResult& r) { return r.name == name; });
  };
  const PhaseResult& stream = pipeline("succinct_stream");
  const PhaseResult& image = pipeline("image_open");
  // Postings compression on the streamed succinct load: vector-baseline
  // bytes over compressed bytes (the acceptance bar is >= 3x).
  const double label_compression =
      stream.label_index_mb > 0
          ? stream.label_index_vector_mb / stream.label_index_mb
          : 0;
  // Reopening the saved image vs rebuilding the same succinct engine from
  // XML (the acceptance bar for the persistent format is >= 20x).
  const double image_open_speedup = image.ms > 0 ? stream.ms / image.ms : 0;
  std::printf("\nlabel index, vector baseline vs compressed: %.2fx\n",
              label_compression);
  std::printf(
      "image open vs succinct rebuild: %.1fx (first query %.0f us)\n",
      image_open_speedup, image.first_query_us);
  all_ok = all_ok && bulk_ok;
  if (!all_ok) std::printf("WARNING: a pipeline failed or node counts differ\n");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"build\",\n  \"quick\": %s,\n"
               "  \"scale\": %.6g,\n  \"nodes\": %ld,\n"
               "  \"xml_bytes\": %zu,\n  \"results\": [\n",
               quick ? "true" : "false", opt.scale, nodes, xml_bytes);
  for (size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    std::fprintf(out,
                 "    {\"pipeline\": \"%s\", \"ms\": %.1f, "
                 "\"mb_per_s\": %.2f, \"peak_rss_mb\": %.2f, "
                 "\"label_index_mb\": %.3f, "
                 "\"label_index_vector_mb\": %.3f, "
                 "\"first_query_us\": %.1f}%s\n",
                 r.name.c_str(), r.ms, mb_per_s(r), r.peak_delta_mb,
                 r.label_index_mb, r.label_index_vector_mb, r.first_query_us,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"label_index_compression\": %.2f,\n"
               "  \"image_open_speedup_vs_rebuild\": %.2f,\n",
               label_compression, image_open_speedup);
  std::fprintf(out,
               "  \"hardware_threads\": %u,\n"
               "  \"simd_scan\": {\"kernel\": \"%s\", \"mb_per_s\": %.1f, "
               "\"entries\": %zu},\n",
               hardware_threads, scan_kernel, scan_mb_per_s, scan_entries);
  std::fprintf(out,
               "  \"bulk_load\": {\"shards\": %d, \"shard_bytes\": %zu, "
               "\"all_rows_ok\": %s, \"series\": [\n",
               kShards, xml_bytes, bulk_ok ? "true" : "false");
  for (size_t i = 0; i < bulk_rows.size(); ++i) {
    const BulkRow& r = bulk_rows[i];
    std::fprintf(out,
                 "    {\"threads\": %u, \"ms\": %.1f, \"mb_per_s\": %.1f, "
                 "\"speedup\": %.3f, \"efficiency\": %.3f}%s\n",
                 r.threads, r.ms, r.mb_per_s, r.speedup, r.efficiency,
                 i + 1 < bulk_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]}\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  std::remove(path.c_str());
  for (const std::string& shard : shard_paths) std::remove(shard.c_str());
  std::remove((image_dir + "/" + persist::kIndexImageFile).c_str());
  ::rmdir(image_dir.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_build.json";
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
