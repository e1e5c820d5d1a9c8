#include "xpath/hybrid.h"

#include <gtest/gtest.h>

#include "baseline/nodeset_eval.h"
#include "test_util.h"
#include "xmark/fig5_configs.h"
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

TEST(HybridTest, ApplicabilityCheck) {
  EXPECT_TRUE(IsHybridEvaluable(MustParse("//a//b//c")));
  EXPECT_TRUE(IsHybridEvaluable(MustParse("//a")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("/a/b")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("//a[b]//c")));
  EXPECT_FALSE(IsHybridEvaluable(MustParse("//a//*")));
}

TEST(HybridTest, AgreesWithBaselineOnSmallTrees) {
  Document d = TreeOf("r(li(kw(em),kw),li(x(kw(x(em)))),em,kw(em))");
  auto plan = HybridPlan::Make(MustParse("//li//kw//em"),
                               d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok()) << plan.status();
  TreeIndex index(d);
  auto got = plan->Run(index);
  ASSERT_TRUE(got.ok());
  auto expect = EvalNodeSetBaseline("//li//kw//em", d);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(*got, *expect);
}

TEST(HybridTest, NestedPivotsDeduplicate) {
  // kw below kw: suffix matches from both pivots must deduplicate.
  Document d = TreeOf("r(li(kw(kw(em))))");
  auto plan =
      HybridPlan::Make(MustParse("//li//kw//em"), d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok());
  TreeIndex index(d);
  auto got = plan->Run(index);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<NodeId>{4}));
}

TEST(HybridTest, PivotSelectionPicksRarestLabel) {
  // Many li, few kw: the pivot must be kw (index 1).
  std::string spec = "r(";
  for (int i = 0; i < 50; ++i) spec += "li,";
  spec += "li(kw(em)))";
  Document d = TreeOf(spec);
  auto plan =
      HybridPlan::Make(MustParse("//li//kw//em"), d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok());
  TreeIndex index(d);
  HybridStats stats;
  auto got = plan->Run(index, &stats);
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
  auto plan =
      HybridPlan::Make(MustParse("//li//kw//em"), d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok());
  TreeIndex index(d);
  HybridStats stats;
  auto got = plan->Run(index, &stats);
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
  auto plan =
      HybridPlan::Make(MustParse("//li//kw//em"), d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok());
  TreeIndex index(d);
  HybridStats stats;
  auto got = plan->Run(index, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.pivot, 0);
  EXPECT_EQ(*got, (std::vector<NodeId>{3}));
}

TEST(HybridTest, SingleStepQuery) {
  Document d = TreeOf("r(a,b(a))");
  auto plan = HybridPlan::Make(MustParse("//a"), d.alphabet_ptr().get());
  ASSERT_TRUE(plan.ok());
  TreeIndex index(d);
  auto got = plan->Run(index);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<NodeId>{1, 3}));
}

TEST(HybridTest, RandomTreesAgreeWithBaseline) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 200, .num_labels = 3});
    TreeIndex index(d);
    for (const char* q : {"//a//b", "//a//b//c", "//c//a"}) {
      auto plan = HybridPlan::Make(MustParse(q), d.alphabet_ptr().get());
      ASSERT_TRUE(plan.ok());
      auto got = plan->Run(index);
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
    auto plan = HybridPlan::Make(MustParse("//listitem//keyword//emph"),
                                 d.alphabet_ptr().get());
    ASSERT_TRUE(plan.ok());
    HybridStats stats;
    auto got = plan->Run(index, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(static_cast<int>(got->size()), Fig5ExpectedSelected(config))
        << Fig5ConfigName(config);
  }
}

}  // namespace
}  // namespace xpwqo
