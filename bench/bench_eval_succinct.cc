// Succinct-engine evaluation benchmark: the paper's speed/space point,
// measured instead of asserted. Runs the Figure-2 workload on an XMark
// document over the succinct backend with jumping off vs. on (both through
// the memoized ASTA evaluator), and the jumping+memoized (opt) evaluator on
// the succinct vs. the pointer backend. All three configurations must select
// identical node sets; a mismatch fails the run. It also reports the
// LIMIT-k and value-predicate cursor series, and governance_overhead_pct:
// what one query countdown (an ExecControl with no active limit) costs a
// full cursor drain of //listitem//keyword.
//
// Usage: bench_eval_succinct [--quick] [--out PATH]
//   --quick  small document + fewer repeats (CI smoke run)
//   --out    where to write the JSON report (default BENCH_eval_succinct.json)
// XPWQO_SCALE overrides the document scale (default 0.2).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "asta/eval.h"
#include "baseline/nodeset_eval.h"
#include "bench_util.h"
#include "core/cursor.h"
#include "core/prepared_query.h"
#include "index/succinct_tree.h"
#include "index/text_store.h"
#include "index/tree_index.h"
#include "util/exec_control.h"
#include "util/strings.h"
#include "xmark/generator.h"
#include "xmark/workload.h"
#include "xpath/compile.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

/// One LIMIT-k measurement through the streaming ResultCursor.
struct LimitPoint {
  size_t k = 0;
  double us = 0;          // open cursor + pull k results
  int64_t visited = 0;    // nodes driven up to the k-th match
  size_t returned = 0;
};

/// The serving-latency series: first-match and LIMIT-k times over
/// jump-friendly descendant chains, where the cursor's region streaming
/// stops after the region containing the k-th match.
struct LimitSeriesRow {
  const char* id;
  const char* xpath;
  double first_match_us = 0;
  double full_ms = 0;
  int64_t full_visited = 0;
  size_t selected = 0;
  bool prefix_ok = true;  // truncated drains are prefixes of the full run
  LimitPoint points[3];
};

/// Median of `v` (upper median for an even count); 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The content-layer series: value-predicate queries evaluated as a
/// relaxed structural plan plus the TextStore-backed post-filter.
struct PredicateSeriesRow {
  const char* id;
  const char* xpath;
  double full_ms = 0;
  double first_match_us = 0;
  int64_t filter_checked = 0;
  int64_t filter_rejected = 0;
  size_t selected = 0;
  bool match = true;  // agrees with the pointer baseline's native answer
};

struct QueryResultRow {
  const char* id;
  const char* xpath;
  double succinct_nojump_ms = 0;
  double succinct_jump_ms = 0;
  double pointer_jump_ms = 0;
  size_t selected = 0;
  bool match = true;

  double jump_speedup() const {
    return succinct_nojump_ms / succinct_jump_ms;
  }
  double succinct_vs_pointer() const {
    return succinct_jump_ms / pointer_jump_ms;
  }
};

int Run(bool quick, const std::string& out_path) {
  XMarkOptions opt;
  opt.scale = XMarkScaleFromEnv(quick ? 0.02 : 0.2);
  std::printf("generating XMark document (scale %.3g)...\n", opt.scale);
  Document doc = GenerateXMark(opt);
  std::printf("document: %s nodes\n",
              WithCommas(static_cast<uint64_t>(doc.num_nodes())).c_str());

  TreeIndex pointer_index(doc);
  SuccinctTree tree(doc);
  TreeIndex succinct_index(tree);
  const int repeats = quick ? 3 : 5;

  // Index-memory report: the compressed postings against the plain-vector
  // baseline they replaced, next to the succinct tree itself.
  const LabelIndex::MemoryStats postings = succinct_index.labels().Memory();
  std::printf(
      "label index: %.2f MB compressed (%.2f MB as vectors, %.2fx; "
      "%zu dense / %zu sparse labels); succinct tree: %.2f MB\n",
      postings.bytes / 1e6, postings.vector_bytes / 1e6,
      postings.bytes > 0
          ? static_cast<double>(postings.vector_bytes) / postings.bytes
          : 0.0,
      postings.dense_labels, postings.sparse_labels,
      tree.MemoryUsage() / 1e6);

  const AstaEvalOptions kNoJump{false, true, true};
  const AstaEvalOptions kJump{true, true, true};

  std::vector<QueryResultRow> rows;
  bool all_match = true;
  for (const WorkloadQuery& wq : Figure2Workload()) {
    auto path = ParseXPath(wq.xpath);
    if (!path.ok()) continue;
    auto asta = CompileToAsta(*path, doc.alphabet_ptr().get());
    if (!asta.ok()) continue;

    QueryResultRow row;
    row.id = wq.id;
    row.xpath = wq.xpath;

    // Both succinct rows reuse the one prebuilt index; the no-jump row
    // simply never consults its jump functions.
    AstaEvalResult nojump, jump, pointer;
    row.succinct_nojump_ms = bench::BestOfMs(
        [&] { nojump = EvalAsta(*asta, succinct_index, kNoJump); }, repeats);
    row.succinct_jump_ms = bench::BestOfMs(
        [&] { jump = EvalAsta(*asta, succinct_index, kJump); }, repeats);
    row.pointer_jump_ms = bench::BestOfMs(
        [&] { pointer = EvalAsta(*asta, pointer_index, kJump); }, repeats);
    row.selected = jump.nodes.size();
    row.match = jump.nodes == nojump.nodes && jump.nodes == pointer.nodes;
    all_match = all_match && row.match;
    rows.push_back(row);

    std::printf(
        "%-4s nojump %8.3f ms  jump %8.3f ms (%5.2fx)  pointer-opt %8.3f ms"
        "  [%zu nodes]%s\n",
        row.id, row.succinct_nojump_ms, row.succinct_jump_ms,
        row.jump_speedup(), row.pointer_jump_ms, row.selected,
        row.match ? "" : "  MISMATCH");
  }

  // ------------------------------------------------------------ LIMIT-k
  // The serving series: open a streaming cursor, pull k results, stop. The
  // interesting numbers are the first-match latency vs. the full-run time
  // and the visited-node counts scaling with k instead of with |D|.
  const struct {
    const char* id;
    const char* xpath;
  } kLimitQueries[] = {
      {"L1", "//listitem//keyword"},
      {"L2", "//keyword"},
      {"L3", "//parlist//listitem"},
  };
  const size_t kLimits[3] = {1, 10, 1000};
  std::vector<LimitSeriesRow> limit_rows;
  std::printf("\nLIMIT-k via ResultCursor (succinct backend, optimized):\n");
  for (const auto& lq : kLimitQueries) {
    auto prepared = PreparedQuery::Prepare(lq.xpath, doc.alphabet_ptr());
    if (!prepared.ok()) continue;
    LimitSeriesRow row;
    row.id = lq.id;
    row.xpath = lq.xpath;

    AstaEvalResult full;
    row.full_ms = bench::BestOfMs(
        [&] { full = EvalAsta(prepared->asta(), succinct_index, kJump); },
        repeats);
    row.full_visited = full.stats.nodes_visited;
    row.selected = full.nodes.size();

    const internal::CursorContext ctx{&succinct_index};
    const QueryOptions opts;  // optimized
    for (size_t i = 0; i < 3; ++i) {
      const size_t k = kLimits[i];
      LimitPoint& point = row.points[i];
      point.k = k;
      std::vector<NodeId> head;
      point.us =
          1000.0 * bench::BestOfMs(
                       [&] {
                         auto cursor =
                             internal::OpenCursor(ctx, *prepared, opts);
                         head = cursor->Drain(k);
                         point.visited =
                             cursor->TakeStats().eval.nodes_visited;
                       },
                       repeats);
      point.returned = head.size();
      row.prefix_ok =
          row.prefix_ok &&
          head.size() == std::min(k, full.nodes.size()) &&
          std::equal(head.begin(), head.end(), full.nodes.begin());
    }
    row.first_match_us = row.points[0].us;
    all_match = all_match && row.prefix_ok;
    limit_rows.push_back(row);

    std::printf(
        "%-4s first match %8.1f us (%lld visited)  k=10 %8.1f us  "
        "k=1000 %8.1f us  full %8.3f ms (%lld visited, %zu nodes)%s\n",
        row.id, row.first_match_us,
        static_cast<long long>(row.points[0].visited), row.points[1].us,
        row.points[2].us, row.full_ms,
        static_cast<long long>(row.full_visited), row.selected,
        row.prefix_ok ? "" : "  PREFIX MISMATCH");
  }

  // ------------------------------------------------ governance overhead
  // Full drains of L1 ungoverned vs. under an ExecControl with no active
  // limit, whose countdown still charges every visited node and returned
  // node. The pairs alternate which side runs first, so host drift hits
  // both sides alike; the figure is the median of the per-pair ratios.
  const int governance_pairs = quick ? 5 : 21;
  double ungoverned_ms = 0, governed_ms = 0, governance_overhead_pct = 0;
  {
    auto prepared =
        PreparedQuery::Prepare("//listitem//keyword", doc.alphabet_ptr());
    if (!prepared.ok()) return 1;
    const internal::CursorContext ctx{&succinct_index};
    const ExecControl no_limit;
    QueryOptions governed;
    governed.control = &no_limit;
    const QueryOptions ungoverned;
    auto drain_ms = [&](const QueryOptions& opts) {
      const auto t0 = std::chrono::steady_clock::now();
      auto cursor = internal::OpenCursor(ctx, *prepared, opts);
      if (cursor.ok()) cursor->Drain();
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    drain_ms(ungoverned);  // warm-up
    std::vector<double> ungoverned_runs, governed_runs, ratios;
    for (int i = 0; i < governance_pairs; ++i) {
      double u, g;
      if (i % 2 == 0) {
        u = drain_ms(ungoverned);
        g = drain_ms(governed);
      } else {
        g = drain_ms(governed);
        u = drain_ms(ungoverned);
      }
      ungoverned_runs.push_back(u);
      governed_runs.push_back(g);
      ratios.push_back(g / u);
    }
    ungoverned_ms = Median(ungoverned_runs);
    governed_ms = Median(governed_runs);
    governance_overhead_pct = (Median(ratios) - 1.0) * 100.0;
  }
  std::printf(
      "\ngovernance overhead (L1 drain, median of %d alternating pairs): "
      "ungoverned %.3f ms, governed %.3f ms (%+.2f%%)\n",
      governance_pairs, ungoverned_ms, governed_ms, governance_overhead_pct);

  // --------------------------------------------------- value predicates
  // The content layer at work: each query relaxes to its structural
  // skeleton for the jumping plan, and the post-filter re-verifies every
  // candidate against TextStore values. filter_checked/filter_rejected
  // expose how much re-verification the relaxation bought.
  TextStore text = TextStore::FromDocument(doc);
  std::printf("\ntext store: %.2f MB (%s values)\n", text.MemoryUsage() / 1e6,
              WithCommas(text.num_values()).c_str());
  const struct {
    const char* id;
    const char* xpath;
  } kPredicateQueries[] = {
      {"V1", "//person[@id='person0']"},
      {"V2", "//keyword[contains(text(),'gamboge')]"},
      {"V3", "//item[contains(location/text(),'eagle')]"},
      {"V4", "//open_auction[.//increase/text()='dagger']/seller"},
      {"V5", "//item[not(contains(location/text(),'a'))]"},
  };
  std::vector<PredicateSeriesRow> pred_rows;
  std::printf("value predicates via relaxed plan + TextStore filter:\n");
  for (const auto& pq : kPredicateQueries) {
    auto prepared = PreparedQuery::Prepare(pq.xpath, doc.alphabet_ptr());
    if (!prepared.ok()) continue;
    PredicateSeriesRow row;
    row.id = pq.id;
    row.xpath = pq.xpath;

    internal::CursorContext ctx{&succinct_index, &text};
    const QueryOptions opts;  // optimized
    std::vector<NodeId> got;
    row.full_ms = bench::BestOfMs(
        [&] {
          auto cursor = internal::OpenCursor(ctx, *prepared, opts);
          got = cursor->Drain();
          const CursorStats stats = cursor->TakeStats();
          row.filter_checked = stats.filter_checked;
          row.filter_rejected = stats.filter_rejected;
        },
        repeats);
    row.selected = got.size();
    row.first_match_us =
        1000.0 * bench::BestOfMs(
                     [&] {
                       auto cursor =
                           internal::OpenCursor(ctx, *prepared, opts);
                       cursor->Drain(1);
                     },
                     repeats);

    auto expect = EvalNodeSetBaseline(prepared->path(), doc);
    row.match = expect.ok() && got == *expect;
    all_match = all_match && row.match;
    pred_rows.push_back(row);

    std::printf(
        "%-4s full %8.3f ms  first match %8.1f us  "
        "[%zu nodes; checked %lld, rejected %lld]%s\n",
        row.id, row.full_ms, row.first_match_us, row.selected,
        static_cast<long long>(row.filter_checked),
        static_cast<long long>(row.filter_rejected),
        row.match ? "" : "  MISMATCH");
  }

  double log_jump = 0, log_sp = 0;
  for (const QueryResultRow& r : rows) {
    log_jump += std::log(r.jump_speedup());
    log_sp += std::log(r.succinct_vs_pointer());
  }
  const double n = static_cast<double>(rows.size());
  const double geo_jump = std::exp(log_jump / n);
  const double geo_sp = std::exp(log_sp / n);
  std::printf(
      "\ngeomean: jumping speeds up the succinct backend %.2fx; "
      "succinct opt eval costs %.2fx the pointer opt eval\n",
      geo_jump, geo_sp);
  std::printf("results: %s\n", all_match ? "all configurations agree"
                                         : "MISMATCH");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"eval_succinct\",\n  \"quick\": %s,\n"
               "  \"scale\": %.6g,\n  \"nodes\": %d,\n"
               "  \"all_match\": %s,\n"
               "  \"geomean_jump_speedup\": %.3f,\n"
               "  \"geomean_succinct_vs_pointer\": %.3f,\n"
               "  \"label_index_bytes\": %zu,\n"
               "  \"label_index_vector_bytes\": %zu,\n"
               "  \"label_index_compression\": %.3f,\n"
               "  \"dense_labels\": %zu,\n  \"sparse_labels\": %zu,\n"
               "  \"succinct_tree_bytes\": %zu,\n"
               "  \"text_store_bytes\": %zu,\n"
               "  \"governance_pairs\": %d,\n"
               "  \"governance_ungoverned_ms\": %.4f,\n"
               "  \"governance_governed_ms\": %.4f,\n"
               "  \"governance_overhead_pct\": %.3f,\n"
               "  \"results\": [\n",
               quick ? "true" : "false", opt.scale, doc.num_nodes(),
               all_match ? "true" : "false", geo_jump, geo_sp,
               postings.bytes, postings.vector_bytes,
               postings.bytes > 0
                   ? static_cast<double>(postings.vector_bytes) /
                         postings.bytes
                   : 0.0,
               postings.dense_labels, postings.sparse_labels,
               tree.MemoryUsage(), text.MemoryUsage(), governance_pairs,
               ungoverned_ms, governed_ms, governance_overhead_pct);
  for (size_t i = 0; i < rows.size(); ++i) {
    const QueryResultRow& r = rows[i];
    std::fprintf(out,
                 "    {\"query\": \"%s\", \"succinct_nojump_ms\": %.4f, "
                 "\"succinct_jump_ms\": %.4f, \"pointer_jump_ms\": %.4f, "
                 "\"jump_speedup\": %.3f, \"selected\": %zu, "
                 "\"match\": %s}%s\n",
                 r.id, r.succinct_nojump_ms, r.succinct_jump_ms,
                 r.pointer_jump_ms, r.jump_speedup(), r.selected,
                 r.match ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"limit_series\": [\n");
  for (size_t i = 0; i < limit_rows.size(); ++i) {
    const LimitSeriesRow& r = limit_rows[i];
    std::fprintf(out,
                 "    {\"query\": \"%s\", \"xpath\": \"%s\", "
                 "\"first_match_us\": %.3f, \"full_ms\": %.4f, "
                 "\"full_visited\": %lld, \"selected\": %zu, "
                 "\"prefix_ok\": %s,\n     \"limits\": [",
                 r.id, r.xpath, r.first_match_us, r.full_ms,
                 static_cast<long long>(r.full_visited), r.selected,
                 r.prefix_ok ? "true" : "false");
    for (size_t j = 0; j < 3; ++j) {
      const LimitPoint& p = r.points[j];
      std::fprintf(out,
                   "{\"k\": %zu, \"us\": %.3f, \"visited\": %lld, "
                   "\"returned\": %zu}%s",
                   p.k, p.us, static_cast<long long>(p.visited),
                   p.returned, j + 1 < 3 ? ", " : "");
    }
    std::fprintf(out, "]}%s\n", i + 1 < limit_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"predicate_series\": [\n");
  for (size_t i = 0; i < pred_rows.size(); ++i) {
    const PredicateSeriesRow& r = pred_rows[i];
    std::fprintf(out,
                 "    {\"query\": \"%s\", \"xpath\": \"%s\", "
                 "\"full_ms\": %.4f, \"first_match_us\": %.3f, "
                 "\"selected\": %zu, \"filter_checked\": %lld, "
                 "\"filter_rejected\": %lld, \"match\": %s}%s\n",
                 r.id, r.xpath, r.full_ms, r.first_match_us, r.selected,
                 static_cast<long long>(r.filter_checked),
                 static_cast<long long>(r.filter_rejected),
                 r.match ? "true" : "false",
                 i + 1 < pred_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_eval_succinct.json";
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
