#include "xpath/compile_sta.h"

#include <gtest/gtest.h>

#include "baseline/nodeset_eval.h"
#include "index/tree_index.h"
#include "sta/minimize.h"
#include "sta/run.h"
#include "sta/topdown_jump.h"
#include "test_util.h"
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

TEST(CompileStaTest, Applicability) {
  EXPECT_TRUE(IsTdstaCompilable(MustParse("/a/b")));
  EXPECT_TRUE(IsTdstaCompilable(MustParse("//a//b")));
  EXPECT_TRUE(IsTdstaCompilable(MustParse("/a/b//c")));
  // Child steps after a descendant step need product states: out of fragment.
  EXPECT_FALSE(IsTdstaCompilable(MustParse("/a//b/c")));
  EXPECT_FALSE(IsTdstaCompilable(MustParse("//b/c")));
  EXPECT_FALSE(IsTdstaCompilable(MustParse("//a[b]")));
  EXPECT_FALSE(IsTdstaCompilable(MustParse("//*")));
  EXPECT_FALSE(IsTdstaCompilable(MustParse("/a/following-sibling::b")));
}

TEST(CompileStaTest, RejectsUnsupportedShapes) {
  Alphabet alphabet;
  EXPECT_EQ(CompileToTdsta(MustParse("//a[b]"), &alphabet).status().code(),
            StatusCode::kUnimplemented);
}

TEST(CompileStaTest, ProducesDeterministicCompleteAutomata) {
  Alphabet alphabet;
  for (const char* q : {"/a", "//a", "/a/b", "//a//b", "/a/b//c", "/a//b//c"}) {
    auto sta = CompileToTdsta(MustParse(q), &alphabet);
    ASSERT_TRUE(sta.ok()) << q;
    EXPECT_TRUE(sta->IsTopDownDeterministic()) << q;
    EXPECT_TRUE(sta->IsTopDownComplete()) << q;
  }
}

TEST(CompileStaTest, AgreesWithBaselineOnRandomTrees) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 180, .num_labels = 3});
    for (const char* q :
         {"/r//a", "//a//b", "/r/a/b", "//b//a//c", "/r/a//b", "//a//a"}) {
      auto sta = CompileToTdsta(MustParse(q), d.alphabet_ptr().get());
      ASSERT_TRUE(sta.ok());
      StaRunResult run = TopDownRun(*sta, d);
      auto expect = EvalNodeSetBaseline(q, d);
      ASSERT_TRUE(expect.ok());
      EXPECT_EQ(run.selected, *expect) << q << " seed " << seed;
    }
  }
}

TEST(CompileStaTest, MinimizedAutomataDriveJumpingRuns) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 200, .num_labels = 3});
    TreeIndex index(d);
    for (const char* q : {"//a//b", "/r/a/b", "/r/a//c"}) {
      auto sta = CompileToTdsta(MustParse(q), d.alphabet_ptr().get());
      ASSERT_TRUE(sta.ok());
      Sta min = MinimizeTopDown(*sta);
      JumpRunResult jump = TopDownJumpRun(min, index);
      auto expect = EvalNodeSetBaseline(q, d);
      ASSERT_TRUE(expect.ok());
      ASSERT_TRUE(jump.accepting);
      EXPECT_EQ(jump.selected, *expect) << q << " seed " << seed;
      EXPECT_LE(jump.stats.nodes_visited, d.num_nodes());
    }
  }
}

TEST(CompileStaTest, ChildChainRejectsWrongRoot) {
  Document d = TreeOf("x(a(b))");
  auto sta = CompileToTdsta(MustParse("/a/b"), d.alphabet_ptr().get());
  ASSERT_TRUE(sta.ok());
  StaRunResult run = TopDownRun(*sta, d);
  EXPECT_FALSE(run.accepting);
  EXPECT_TRUE(run.selected.empty());
}

TEST(CompileStaTest, JumpVisitsFractionOnSparseMatches) {
  std::string spec = "r(";
  for (int i = 0; i < 300; ++i) spec += "x(x),";
  spec += "a(b))";
  Document d = TreeOf(spec);
  TreeIndex index(d);
  auto sta = CompileToTdsta(MustParse("//a//b"), d.alphabet_ptr().get());
  ASSERT_TRUE(sta.ok());
  Sta min = MinimizeTopDown(*sta);
  JumpRunResult jump = TopDownJumpRun(min, index);
  ASSERT_TRUE(jump.accepting);
  EXPECT_EQ(jump.selected.size(), 1u);
  EXPECT_LT(jump.stats.nodes_visited, 10);
}

}  // namespace
}  // namespace xpwqo
