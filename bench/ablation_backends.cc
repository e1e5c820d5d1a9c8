// Ablation for the succinct-tree claim (§1): pointer structures blow up
// memory 5-10x, succinct trees avoid this at some navigation cost. Compares
// memory per node and memoized (firstChild/nextSibling-only) evaluation
// time over both backends.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "asta/eval.h"
#include "bench_util.h"
#include "index/succinct_tree.h"
#include "util/strings.h"
#include "xpath/compile.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

const SuccinctTree& SharedSuccinctTree() {
  static SuccinctTree* tree =
      new SuccinctTree(bench::XMarkEngine().document());
  return *tree;
}

const TreeIndex& SharedSuccinctIndex() {
  static TreeIndex* index = new TreeIndex(SharedSuccinctTree());
  return *index;
}

Asta CompileQuery(const char* xpath) {
  auto path = ParseXPath(xpath);
  auto asta = CompileToAsta(
      *path, bench::XMarkEngine().document().alphabet_ptr().get());
  return std::move(asta).value();
}

/// Evaluates `xpath` over the backend behind `index`. The index is built
/// before the timed loop, also for the no-jumping rows, which never consult
/// its jump functions.
void BM_Eval(benchmark::State& state, const TreeIndex& index,
             const char* xpath, const AstaEvalOptions& options) {
  Asta asta = CompileQuery(xpath);
  for (auto _ : state) {
    AstaEvalResult r = EvalAsta(asta, index, options);
    benchmark::DoNotOptimize(r.nodes.data());
  }
}

void BM_PointerNavigation(benchmark::State& state) {
  const Document& doc = bench::XMarkEngine().document();
  for (auto _ : state) {
    int64_t checksum = 0;
    for (NodeId n = 0; n < doc.num_nodes(); ++n) {
      checksum += doc.BinaryLeft(n) + doc.BinaryRight(n);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * doc.num_nodes());
}

void BM_SuccinctNavigation(benchmark::State& state) {
  const SuccinctTree& tree = SharedSuccinctTree();
  for (auto _ : state) {
    int64_t checksum = 0;
    for (NodeId n = 0; n < tree.num_nodes(); ++n) {
      checksum += tree.BinaryLeft(n) + tree.BinaryRight(n);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * tree.num_nodes());
}

void RegisterAll() {
  benchmark::RegisterBenchmark("Navigation/pointer", BM_PointerNavigation)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Navigation/succinct", BM_SuccinctNavigation)
      ->Unit(benchmark::kMillisecond);
  for (const char* q : {"//listitem//keyword", "/site//keyword"}) {
    const AstaEvalOptions memo{false, true, true};  // memoized, no jumping
    const AstaEvalOptions opt{true, true, true};  // jumping + memo + infoprop
    benchmark::RegisterBenchmark(
        (std::string("MemoEval/pointer/") + q).c_str(),
        [q, memo](benchmark::State& s) {
          BM_Eval(s, bench::XMarkEngine().index(), q, memo);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("MemoEval/succinct/") + q).c_str(),
        [q, memo](benchmark::State& s) {
          BM_Eval(s, SharedSuccinctIndex(), q, memo);
        })
        ->Unit(benchmark::kMillisecond);
    // Jumping on both backends: the succinct TreeIndex makes the opt
    // configuration comparable, not just the stepping one.
    benchmark::RegisterBenchmark(
        (std::string("OptEval/pointer/") + q).c_str(),
        [q, opt](benchmark::State& s) {
          BM_Eval(s, bench::XMarkEngine().index(), q, opt);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("OptEval/succinct/") + q).c_str(),
        [q, opt](benchmark::State& s) {
          BM_Eval(s, SharedSuccinctIndex(), q, opt);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

void PrintMemoryReport() {
  const Document& doc = bench::XMarkEngine().document();
  const SuccinctTree& tree = SharedSuccinctTree();
  double n = static_cast<double>(doc.num_nodes());
  std::printf("memory: pointer tree %s bytes (%.1f B/node), succinct "
              "topology+labels %s bytes (%.1f B/node)\n\n",
              WithCommas(doc.MemoryUsage()).c_str(), doc.MemoryUsage() / n,
              WithCommas(tree.MemoryUsage()).c_str(),
              tree.MemoryUsage() / n);
}

}  // namespace
}  // namespace xpwqo

int main(int argc, char** argv) {
  xpwqo::bench::PrintHeader("Ablation: pointer vs succinct tree backend",
                            xpwqo::bench::XMarkEngine());
  xpwqo::PrintMemoryReport();
  xpwqo::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
