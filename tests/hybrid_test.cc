#include "xpath/hybrid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "baseline/nodeset_eval.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "test_util.h"
#include "xmark/fig5_configs.h"
#include "xmark/generator.h"
#include "xpath/compile.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

using testing_util::RandomTree;
using testing_util::TreeOf;

Path MustParse(std::string_view s) {
  auto p = ParseXPath(s);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

/// Plans `query` over `d` and drains its HybridStream to completion, as a
/// kHybrid cursor does: the plan and the full-chain automaton compile from
/// the same path, like PreparedQuery's. The answer is in document order.
StatusOr<std::vector<NodeId>> RunHybrid(std::string_view query,
                                        const Document& d,
                                        const TreeIndex& index,
                                        HybridStats* stats = nullptr) {
  const Path path = MustParse(query);
  XPWQO_ASSIGN_OR_RETURN(HybridPlan plan,
                         HybridPlan::Make(path, d.alphabet_ptr().get()));
  XPWQO_ASSIGN_OR_RETURN(Asta full,
                         CompileToAsta(path, d.alphabet_ptr().get()));
  HybridStream stream(plan, full, index);
  std::vector<NodeId> out;
  while (stream.NextBatch(&out)) {
  }
  if (stats != nullptr) *stats = stream.stats();
  return out;
}

TEST(HybridTest, ApplicabilityCheck) {
  EXPECT_TRUE(IsHybridEvaluable(MustParse("//a//b//c")));
  EXPECT_TRUE(IsHybridEvaluable(MustParse("//a")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("/a/b")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("//a[b]//c")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("//a//*")));
}

TEST(HybridTest, AgreesWithBaselineOnSmallTrees) {
  Document d = TreeOf("r(li(kw(em),kw),li(x(kw(x(em)))),em,kw(em))");
  TreeIndex index(d);
  auto got = RunHybrid("//li//kw//em", d, index);
  ASSERT_TRUE(got.ok());
  auto expect = EvalNodeSetBaseline("//li//kw//em", d);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(*got, *expect);
}

TEST(HybridTest, NestedPivotsDeduplicate) {
  // kw below kw: suffix matches from both pivots must deduplicate.
  Document d = TreeOf("r(li(kw(kw(em))))");
  TreeIndex index(d);
  auto got = RunHybrid("//li//kw//em", d, index);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<NodeId>{4}));
}

TEST(HybridTest, PivotSelectionPicksRarestLabel) {
  // Many li, few kw: the pivot must be kw (index 1).
  std::string spec = "r(";
  for (int i = 0; i < 50; ++i) spec += "li,";
  spec += "li(kw(em)))";
  Document d = TreeOf(spec);
  TreeIndex index(d);
  HybridStats stats;
  auto got = RunHybrid("//li//kw//em", d, index, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.pivot, 1);
  EXPECT_EQ(stats.pivot_count, 1);
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ(d.LabelName((*got)[0]), "em");
  // Visits: the kw candidate, its ancestors, and the suffix eval — far
  // fewer than the 51 listitems.
  EXPECT_LT(stats.nodes_visited, 10);
}

TEST(HybridTest, LastLabelPivotIsPureBottomUp) {
  // Configuration-B shape: emph rarest (pivot = last step): candidates are
  // checked upward only.
  std::string spec = "r(";
  for (int i = 0; i < 30; ++i) spec += "li(kw),";
  spec += "li(kw(em)),em)";
  Document d = TreeOf(spec);
  TreeIndex index(d);
  HybridStats stats;
  auto got = RunHybrid("//li//kw//em", d, index, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.pivot, 2);
  ASSERT_EQ(got->size(), 1u);
  // The top-level em (no li/kw ancestors) is rejected by the upward check.
  EXPECT_EQ(d.LabelName(d.parent((*got)[0])), "kw");
}

TEST(HybridTest, FirstLabelPivotFallsBackToRegular) {
  // Configuration-C shape: the first label is rarest.
  std::string spec = "r(li(kw(em))";
  for (int i = 0; i < 20; ++i) spec += ",kw(em)";
  spec += ")";
  Document d = TreeOf(spec);
  TreeIndex index(d);
  HybridStats stats;
  auto got = RunHybrid("//li//kw//em", d, index, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.pivot, 0);
  EXPECT_EQ(*got, (std::vector<NodeId>{3}));
}

TEST(HybridTest, SingleStepQuery) {
  Document d = TreeOf("r(a,b(a))");
  TreeIndex index(d);
  auto got = RunHybrid("//a", d, index);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<NodeId>{1, 3}));
}

TEST(HybridTest, RandomTreesAgreeWithBaseline) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 200, .num_labels = 3});
    TreeIndex index(d);
    for (const char* q : {"//a//b", "//a//b//c", "//c//a"}) {
      auto got = RunHybrid(q, d, index);
      ASSERT_TRUE(got.ok());
      auto expect = EvalNodeSetBaseline(q, d);
      ASSERT_TRUE(expect.ok());
      EXPECT_EQ(*got, *expect) << q << " seed " << seed;
    }
  }
}

TEST(HybridTest, Figure5ConfigurationsSelectExpectedCounts) {
  for (Fig5Config config : {Fig5Config::kA, Fig5Config::kB, Fig5Config::kC,
                            Fig5Config::kD}) {
    Document d = BuildFig5Config(config);
    TreeIndex index(d);
    auto got = RunHybrid("//listitem//keyword//emph", d, index);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(static_cast<int>(got->size()), Fig5ExpectedSelected(config))
        << Fig5ConfigName(config);
  }
}

TEST(HybridTest, GovernedCursorStopsAfterAPrefix) {
  // HybridStream holds the only copy of the candidate/suffix budget split.
  // A governed kHybrid cursor must stop with the limit's code, within one
  // check interval of its budget, after returning a prefix of the answer.
  // The cursor is built the way Engine::Run builds it (no control of its
  // own), so every stop comes from the stream.
  XMarkOptions xmark;
  xmark.scale = 0.004;
  struct Case {
    const char* name;
    Document doc;
    const char* query;
    int pivot;  // -1: whatever the document's counts pick
  };
  Case cases[] = {
      {"fig5 A", BuildFig5Config(Fig5Config::kA), "//listitem//keyword//emph",
       1},
      {"fig5 C", BuildFig5Config(Fig5Config::kC), "//listitem//keyword//emph",
       0},
      {"xmark", GenerateXMark(xmark), "//listitem//keyword", -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TreeIndex index(c.doc);
    const internal::CursorContext ctx{&index, nullptr, &c.doc};
    auto query = PreparedQuery::Prepare(c.query, c.doc.alphabet_ptr());
    ASSERT_TRUE(query.ok()) << query.status();
    auto open = [&](const ExecControl* control) {
      QueryOptions opts;
      opts.strategy = EvalStrategy::kHybrid;
      opts.control = control;
      auto cursor = internal::OpenCursor(ctx, *query, opts);
      EXPECT_TRUE(cursor.ok()) << cursor.status();
      return std::move(*cursor);
    };
    auto is_prefix = [](const std::vector<NodeId>& head,
                        const std::vector<NodeId>& all) {
      return head.size() <= all.size() &&
             std::equal(head.begin(), head.end(), all.begin());
    };

    ResultCursor ungoverned = open(nullptr);
    const std::vector<NodeId> answer = ungoverned.Drain();
    ASSERT_TRUE(ungoverned.status().ok());
    const HybridStats full = ungoverned.TakeStats().hybrid;
    if (c.pivot >= 0) EXPECT_EQ(full.pivot, c.pivot);
    ASSERT_GT(full.nodes_visited, 1);

    ExecControl budget;
    budget.max_visited = full.nodes_visited / 2;
    ResultCursor limited = open(&budget);
    const std::vector<NodeId> head = limited.Drain();
    EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
    EXPECT_LE(limited.TakeStats().hybrid.nodes_visited,
              budget.max_visited + ExecControl::kDefaultCheckInterval);
    EXPECT_TRUE(is_prefix(head, answer));

    // An already-set cancel flag; checking at every charge makes the stream
    // see it at its first candidate (pivot > 0) or visited node (pivot 0).
    const std::atomic<bool> cancel{true};
    ExecControl cancellable;
    cancellable.cancel = &cancel;
    cancellable.check_interval = 1;
    ResultCursor cancelled = open(&cancellable);
    const std::vector<NodeId> got = cancelled.Drain();
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_LT(got.size(), answer.size());
    EXPECT_TRUE(is_prefix(got, answer));
  }
}

TEST(HybridTest, ExpiredDeadlineStopsShortSuffixRuns) {
  // 300 pivot candidates (b is the rarest label) whose suffix runs each
  // visit about 1,000 nodes, fewer than one check interval: only a
  // countdown shared across candidates, ancestor walks and suffix runs
  // reaches a check, so the run must stop rather than answer in full.
  std::string xml = "<r>";
  for (int i = 0; i < 400; ++i) xml += "<a/>";
  for (int i = 0; i < 300; ++i) {
    xml += "<a><b>";
    for (int j = 0; j < 1000; ++j) xml += "<c/>";
    xml += "</b></a>";
  }
  xml += "</r>";
  for (TreeBackend backend : {TreeBackend::kPointer, TreeBackend::kSuccinct}) {
    auto engine = Engine::FromXmlString(xml, backend);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (EvalStrategy s : {EvalStrategy::kOptimized, EvalStrategy::kHybrid}) {
      SCOPED_TRACE(std::string(TreeBackendName(backend)) + " " +
                   EvalStrategyName(s));
      QueryOptions opts;
      opts.strategy = s;
      auto full = engine->Run("//a//b//c", opts);
      ASSERT_TRUE(full.ok()) << full.status();
      ASSERT_EQ(full->nodes.size(), 300000u);
      if (s == EvalStrategy::kHybrid) {
        ASSERT_TRUE(full->used_hybrid);
        ASSERT_EQ(full->hybrid.pivot, 1);
      }

      ExecControl expired;
      expired.deadline = ExecControl::Clock::now() - std::chrono::seconds(1);
      opts.control = &expired;
      auto late = engine->Run("//a//b//c", opts);
      EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

}  // namespace
}  // namespace xpwqo
