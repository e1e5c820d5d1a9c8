// Cross-engine stress test: randomized queries of the full supported
// fragment over randomized documents, evaluated by every engine in the
// repository. All engines must agree with the step-wise node-set baseline:
//  - the ASTA evaluator in all four Figure 4 configurations (+ info-prop),
//  - the succinct-tree backend,
//  - the hybrid strategy (when applicable),
//  - minimal TDSTAs with full and jumping runs (when compilable),
//  - the ResultCursor over every strategy on both backends, fully drained
//    and truncated (the streaming early-termination paths must emit exactly
//    a document-order prefix of the classic run).
#include <gtest/gtest.h>

#include <algorithm>

#include "asta/eval.h"
#include "baseline/nodeset_eval.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/prepared_query.h"
#include "index/text_store.h"
#include "query_gen.h"
#include "sta/minimize.h"
#include "sta/run.h"
#include "sta/topdown_jump.h"
#include "test_util.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xpath/compile.h"
#include "xpath/compile_sta.h"
#include "xpath/hybrid.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

using testing_util::QueryGenOptions;
using testing_util::RandomQuery;
using testing_util::RandomTree;

/// Drains a HybridStream to completion, as a kHybrid cursor does; `full` is
/// the whole-chain automaton the pivot-0 degeneration runs.
StatusOr<std::vector<NodeId>> DrainHybrid(const HybridPlan& plan,
                                          const Asta& full,
                                          const TreeIndex& index) {
  HybridStream stream(plan, full, index);
  std::vector<NodeId> out;
  while (stream.NextBatch(&out)) {
  }
  return out;
}

/// Cursor-vs-Run parity over one backend context: the full drain must equal
/// the classic result and a truncated drain must be its document-order
/// prefix, for every strategy the context supports.
void CheckCursors(const internal::CursorContext& ctx,
                  const PreparedQuery& query,
                  const std::vector<NodeId>& expect, const char* backend) {
  const EvalStrategy strategies[] = {
      EvalStrategy::kNaive,     EvalStrategy::kJumping,
      EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
      EvalStrategy::kHybrid,    EvalStrategy::kBaseline,
  };
  for (EvalStrategy s : strategies) {
    if (s == EvalStrategy::kBaseline && ctx.doc == nullptr) continue;
    QueryOptions opts;
    opts.strategy = s;
    auto full = internal::OpenCursor(ctx, query, opts);
    ASSERT_TRUE(full.ok()) << backend << " " << EvalStrategyName(s);
    ASSERT_EQ(full->Drain(), expect)
        << backend << " cursor " << EvalStrategyName(s);

    const size_t k = std::min<size_t>(3, expect.size() + 1);
    auto head = internal::OpenCursor(ctx, query, opts);
    ASSERT_TRUE(head.ok());
    std::vector<NodeId> first = head->Drain(k);
    ASSERT_EQ(first.size(), std::min(k, expect.size()));
    ASSERT_TRUE(std::equal(first.begin(), first.end(), expect.begin()))
        << backend << " truncated cursor " << EvalStrategyName(s);

    if (!expect.empty()) {
      const NodeId target = expect[expect.size() / 2];
      auto seek = internal::OpenCursor(ctx, query, opts);
      ASSERT_TRUE(seek.ok());
      ASSERT_EQ(seek->SeekGe(target), target)
          << backend << " SeekGe " << EvalStrategyName(s);
    }
  }
}

void CheckAllEngines(const Document& doc, const std::string& query) {
  SCOPED_TRACE(query);
  auto path = ParseXPath(query);
  ASSERT_TRUE(path.ok()) << path.status();
  auto expect = EvalNodeSetBaseline(*path, doc);
  ASSERT_TRUE(expect.ok()) << expect.status();
  // Compiling only reads the alphabet, also for names the document lacks.
  const int labels = doc.alphabet().size();

  // The automaton plans run the structural relaxation, which with value
  // predicates selects a superset; the cursors' post-filter narrows it.
  auto prepared = PreparedQuery::Prepare(query, doc.alphabet_ptr());
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(doc.alphabet().size(), labels) << "Prepare wrote the alphabet";
  const Path& plan_path = prepared->relaxed_path();
  auto plan_expect = EvalNodeSetBaseline(plan_path, doc);
  ASSERT_TRUE(plan_expect.ok()) << plan_expect.status();

  auto asta = CompileToAsta(plan_path, doc.alphabet_ptr().get());
  ASSERT_TRUE(asta.ok()) << asta.status();
  EXPECT_EQ(doc.alphabet().size(), labels) << "CompileToAsta wrote it";
  TreeIndex index(doc);
  const AstaEvalOptions configs[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, true},    {true, true, false},  {false, false, true},
  };
  SuccinctTree tree(doc);
  TreeIndex succinct_index(tree);
  for (const AstaEvalOptions& opts : configs) {
    AstaEvalResult r = EvalAsta(*asta, index, opts);
    ASSERT_EQ(r.nodes, *plan_expect)
        << "asta jump=" << opts.jumping << " memo=" << opts.memoize
        << " infoprop=" << opts.info_propagation;
    // Every configuration — including the jumping ones — must agree on the
    // succinct backend through the succinct-backed TreeIndex.
    AstaEvalResult s = EvalAsta(*asta, succinct_index, opts);
    ASSERT_EQ(s.nodes, *plan_expect)
        << "succinct jump=" << opts.jumping << " memo=" << opts.memoize
        << " infoprop=" << opts.info_propagation;
  }

  if (IsHybridEvaluable(plan_path)) {
    auto plan = HybridPlan::Make(plan_path, doc.alphabet_ptr().get());
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(doc.alphabet().size(), labels) << "HybridPlan::Make wrote it";
    auto hybrid = DrainHybrid(*plan, *asta, index);
    ASSERT_TRUE(hybrid.ok());
    ASSERT_EQ(*hybrid, *plan_expect) << "hybrid";
    auto succinct_hybrid = DrainHybrid(*plan, *asta, succinct_index);
    ASSERT_TRUE(succinct_hybrid.ok());
    ASSERT_EQ(*succinct_hybrid, *plan_expect) << "succinct hybrid";
  }

  if (IsTdstaCompilable(plan_path)) {
    auto sta = CompileToTdsta(plan_path, doc.alphabet_ptr().get());
    ASSERT_TRUE(sta.ok());
    EXPECT_EQ(doc.alphabet().size(), labels) << "CompileToTdsta wrote it";
    StaRunResult full = TopDownRun(*sta, doc);
    ASSERT_EQ(full.selected, *plan_expect) << "tdsta full run";
    Sta minimal = MinimizeTopDown(*sta);
    JumpRunResult jump = TopDownJumpRun(minimal, index);
    ASSERT_EQ(jump.selected, *plan_expect) << "tdsta jumping run";
    JumpRunResult sjump = TopDownJumpRun(minimal, succinct_index);
    ASSERT_EQ(sjump.selected, *plan_expect) << "tdsta succinct jumping run";
  }

  // The serving surface: cursors over every strategy, on both backends.
  internal::CursorContext pointer_ctx{&index, nullptr, &doc};
  const TextStore text = TextStore::FromDocument(doc);
  internal::CursorContext succinct_ctx{&succinct_index, &text};
  CheckCursors(pointer_ctx, *prepared, *expect, "pointer");
  CheckCursors(succinct_ctx, *prepared, *expect, "succinct");
}

class CrossEngineRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineRandomTest, RandomQueriesOnRandomDocuments) {
  uint64_t seed = GetParam();
  Document doc = RandomTree(seed, {.num_nodes = 120 + 40 * (seed % 5),
                                   .num_labels = 3,
                                   .descend_prob = 0.35 + 0.05 * (seed % 4)});
  Random rng(seed * 77 + 5);
  for (int i = 0; i < 12; ++i) {
    CheckAllEngines(doc, RandomQuery(&rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineRandomTest,
                         ::testing::Range<uint64_t>(1, 21));

class CrossEngineJumpHeavyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineJumpHeavyTest, DescendantHeavyQueries) {
  // Descendant-dominated queries over label-skewed documents: nearly every
  // step compiles to a looping state, so the jumping evaluators spend the
  // run inside the label-index enumeration (the path the succinct-backed
  // TreeIndex has to get right).
  uint64_t seed = GetParam();
  Document doc = RandomTree(seed * 131 + 7,
                            {.num_nodes = 200 + 60 * (seed % 4),
                             .num_labels = 5,
                             .descend_prob = 0.45});
  Random rng(seed * 913 + 3);
  QueryGenOptions gen;
  gen.num_labels = 5;
  gen.max_steps = 4;
  gen.descendant_prob = 0.85;
  gen.star_prob = 0.04;
  for (int i = 0; i < 10; ++i) {
    CheckAllEngines(doc, RandomQuery(&rng, gen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineJumpHeavyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CrossEngineShapeTest, DeepChainDocument) {
  // A pathological 400-deep chain: exercises the explicit stacks.
  std::string spec = "r";
  for (int i = 0; i < 400; ++i) {
    spec = (i % 3 == 0 ? "a(" : (i % 3 == 1 ? "b(" : "c(")) + spec + ")";
  }
  Document doc = testing_util::TreeOf(spec);
  for (const char* q : {"//a//b//c", "//a[.//b]", "//c[not(a)]", "//b/c"}) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, WideFanoutDocument) {
  // 5000 children under one node: sibling chains must not recurse.
  std::string spec = "r(";
  for (int i = 0; i < 5000; ++i) {
    spec += (i % 7 == 0) ? "a(b)," : "c,";
  }
  spec += "a)";
  Document doc = testing_util::TreeOf(spec);
  for (const char* q :
       {"//a/b", "//a[b]", "/r/a", "//c/following-sibling::a"}) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, QueriesNamingAbsentLabels) {
  // 'z' labels no node: its name test matches nothing, under not(), or,
  // inside chains, as an attribute and under a value comparison alike.
  auto doc = ParseXmlString(
      "<r><a><b>v</b></a><a><c/><b/></a><a id='1'><b/><c>v</c></a>"
      "<b><a/></b></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  for (const char* q : {"//z", "//a[not(z)]", "//a[z or b]", "//a//z//b",
                        "/r/z", "//a/*[z]", "//a[@z]", "//a[z/text()='v']"}) {
    CheckAllEngines(*doc, q);
  }
}

TEST(CrossEngineShapeTest, XMarkQueriesBeyondTheWorkload) {
  XMarkOptions opt;
  opt.scale = 0.004;
  Document doc = GenerateXMark(opt);
  const char* queries[] = {
      "//person[profile]/name",
      "//open_auction[bidder]//increase",
      "//item[not(mailbox/mail)]",
      "/site/*/*/name",
      "//annotation[description/parlist or description/text]",
      "//mail[date and text]",
      "//listitem//listitem",
      "//parlist[listitem[parlist]]",
      "//text[keyword[emph]]",
      "//person[address and not(homepage)]",
  };
  for (const char* q : queries) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, RandomQueriesOnXMark) {
  XMarkOptions opt;
  opt.scale = 0.003;
  Document doc = GenerateXMark(opt);
  Random rng(2026);
  QueryGenOptions qopt;
  qopt.num_labels = 0;  // unused below; we substitute XMark labels
  for (int i = 0; i < 25; ++i) {
    // Generate with letter labels then substitute XMark element names so
    // the queries hit real structure.
    QueryGenOptions gen;
    gen.num_labels = 4;
    std::string q = RandomQuery(&rng, gen);
    const char* subst[4] = {"item", "keyword", "listitem", "text"};
    std::string mapped;
    auto is_word = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '-';
    };
    for (size_t j = 0; j < q.size(); ++j) {
      char c = q[j];
      bool isolated = c >= 'a' && c <= 'd' &&
                      (j == 0 || !is_word(q[j - 1])) &&
                      (j + 1 == q.size() || !is_word(q[j + 1]));
      if (isolated) {
        mapped += subst[c - 'a'];  // a single-letter label, not a keyword
      } else {
        mapped += c;
      }
    }
    CheckAllEngines(doc, mapped);
  }
}

}  // namespace
}  // namespace xpwqo
