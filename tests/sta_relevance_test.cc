#include "sta/relevance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sta/bottomup.h"
#include "sta/examples.h"
#include "sta/minimize.h"
#include "sta/run.h"
#include "sta/topdown_jump.h"
#include "test_util.h"

namespace xpwqo {
namespace {

using testing_util::RandomTree;
using testing_util::TreeOf;

struct DocIds {
  LabelId a, b, c;
};
DocIds IdsOf(const Document& d) {
  return {d.alphabet().Find("a"), d.alphabet().Find("b"),
          d.alphabet().Find("c")};
}

bool IsSubset(const std::vector<NodeId>& inner,
              const std::vector<NodeId>& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(),
                       inner.end());
}

TEST(SpecialStateTest, FindersLocatePaperStates) {
  Sta dtd = StaDtdRootIsA(5);
  EXPECT_EQ(FindTopDownUniversal(dtd), 1);
  EXPECT_EQ(FindTopDownSink(dtd), 2);
  Sta ab = StaForDescADescB(5, 6);
  EXPECT_EQ(FindTopDownUniversal(ab), kNoState);  // q1 selects, q0 changes
  EXPECT_EQ(FindTopDownSink(ab), kNoState);
}

TEST(TopDownRelevanceTest, DtdRecognizerOnlyRootIsRelevant) {
  // §3's motivating example: the automaton changes state only at the root.
  Document d = TreeOf("a(b(c),d,e(f,g))");
  LabelId a = d.alphabet().Find("a");
  Sta min = MinimizeTopDown(StaDtdRootIsA(a));
  StaRunResult run = TopDownRun(min, d);
  ASSERT_TRUE(run.accepting);
  EXPECT_EQ(TopDownRelevantNodes(min, d, run.states),
            (std::vector<NodeId>{0}));
}

TEST(TopDownRelevanceTest, DescADescBRelevantAreTopAsAndTheirBs) {
  // "all top-most a-nodes and all their b-labeled descendants are relevant"
  // (§1). Plus glue nodes where the run switches between q0/q1 contexts —
  // for this tree: the a node and the b's below it.
  Document d = TreeOf("r(a(c(b),b),c,b)");
  DocIds ids = IdsOf(d);
  Sta min = MinimizeTopDown(StaForDescADescB(ids.a, ids.b));
  StaRunResult run = TopDownRun(min, d);
  ASSERT_TRUE(run.accepting);
  std::vector<NodeId> relevant = TopDownRelevantNodes(min, d, run.states);
  // a1 changes state; b3 and b4 are selected. r0, c2, c5, b6 are not
  // relevant (b6 is in state q0 and q0 does not select).
  EXPECT_EQ(relevant, (std::vector<NodeId>{1, 3, 4}));
}

TEST(TopDownJumpTest, VisitsExactlyRelevantOnPaperExample) {
  Document d = TreeOf("r(a(c(b),b),c,b)");
  DocIds ids = IdsOf(d);
  Sta min = MinimizeTopDown(StaForDescADescB(ids.a, ids.b));
  TreeIndex index(d);
  JumpRunResult jump = TopDownJumpRun(min, index);
  StaRunResult full = TopDownRun(min, d);
  ASSERT_TRUE(jump.accepting);
  EXPECT_EQ(jump.visited, TopDownRelevantNodes(min, d, full.states));
  EXPECT_EQ(jump.selected, full.selected);
}

class JumpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JumpPropertyTest, Theorem31OnRandomTrees) {
  Document d = RandomTree(GetParam(), {.num_nodes = 200, .num_labels = 3});
  DocIds ids = IdsOf(d);
  TreeIndex index(d);
  std::vector<Sta> automata = {
      MinimizeTopDown(StaForDescADescB(ids.a, ids.b)),
      MinimizeTopDown(StaForDescendantChain({ids.a, ids.b, ids.c})),
      MinimizeTopDown(StaDtdRootIsA(ids.a)),
  };
  for (const Sta& min : automata) {
    StaRunResult full = TopDownRun(min, d);
    JumpRunResult jump = TopDownJumpRun(min, index);
    ASSERT_EQ(jump.accepting, full.accepting);
    if (!full.accepting) {
      EXPECT_TRUE(jump.visited.empty());
      continue;
    }
    // Same selection.
    EXPECT_EQ(jump.selected, full.selected);
    // Partial run agrees with the full run wherever it is defined.
    for (NodeId n = 0; n < d.num_nodes(); ++n) {
      if (jump.states[n] != kNoState) {
        EXPECT_EQ(jump.states[n], full.states[n]) << "node " << n;
      }
    }
    // The visited set covers every relevant node (Theorem 3.1 optimality
    // says equality for minimal automata; our implementation guarantees ⊇,
    // and the paper examples above check equality).
    std::vector<NodeId> relevant = TopDownRelevantNodes(min, d, full.states);
    EXPECT_TRUE(IsSubset(relevant, jump.visited));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JumpPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(TopDownJumpTest, RejectionReturnsEmptyMapping) {
  Document d = TreeOf("b(a)");
  LabelId a = d.alphabet().Find("a");
  Sta min = MinimizeTopDown(StaDtdRootIsA(a));
  TreeIndex index(d);
  JumpRunResult jump = TopDownJumpRun(min, index);
  EXPECT_FALSE(jump.accepting);
  for (StateId q : jump.states) EXPECT_EQ(q, kNoState);
}

TEST(TopDownJumpTest, JumpSkipsHugeIrrelevantRegions) {
  // A wide tree of c's with two a(b) islands: the jump run must visit a
  // number of nodes proportional to the islands, not the document.
  std::string spec = "r(";
  for (int i = 0; i < 500; ++i) spec += "c,";
  spec += "a(b),";
  for (int i = 0; i < 500; ++i) spec += "c(c),";
  spec += "a(c(b)))";
  Document d = TreeOf(spec);
  DocIds ids = IdsOf(d);
  Sta min = MinimizeTopDown(StaForDescADescB(ids.a, ids.b));
  TreeIndex index(d);
  JumpRunResult jump = TopDownJumpRun(min, index);
  ASSERT_TRUE(jump.accepting);
  EXPECT_EQ(jump.selected.size(), 2u);
  EXPECT_LT(jump.stats.nodes_visited, 10);
  EXPECT_GT(d.num_nodes(), 1500);
}

// ---------------------------------------------------------------------------
// Bottom-up.

TEST(BottomUpRelevanceTest, PaperFigure6Example) {
  // Figure 6 runs A_{//a[.//b]} bottom-up; subtrees in q0 are irrelevant.
  Document d = TreeOf("r(a(c(b)),c)");
  DocIds ids = IdsOf(d);
  Sta sta = StaForAWithBDescendant(ids.a, ids.b);
  StaRunResult run = BottomUpRun(sta, d);
  ASSERT_TRUE(run.accepting);
  std::vector<NodeId> relevant = BottomUpRelevantNodes(sta, d, run.states);
  // a1 is selected (relevant); b3 changes q0 -> q1 in its parent — b3's own
  // state is q1 with q0 children... Validate via the lemma itself: relevant
  // nodes must include the selected node a1.
  EXPECT_TRUE(std::binary_search(relevant.begin(), relevant.end(), 1));
  // The all-c node 5 with q0 children and q0 state is not relevant.
  EXPECT_FALSE(std::binary_search(relevant.begin(), relevant.end(), 5));
}

TEST(BottomUpListRunTest, MatchesSweepOnRandomTrees) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 150, .num_labels = 3});
    DocIds ids = IdsOf(d);
    Sta sta = StaForAWithBDescendant(ids.a, ids.b);
    StaRunResult sweep = BottomUpRun(sta, d);
    StaRunResult list = BottomUpListRun(sta, d);
    EXPECT_EQ(list.accepting, sweep.accepting);
    EXPECT_EQ(list.selected, sweep.selected);
    EXPECT_EQ(list.states, sweep.states);
  }
}

TEST(BottomUpEssentialLabelsTest, AWithB) {
  DocIds ids = {1, 2, 3};
  Sta sta = StaForAWithBDescendant(ids.a, ids.b);
  LabelSet essential = BottomUpEssentialLabels(sta);
  // Only 'b' kicks the q0 fixpoint (selection is on q1, not q0).
  EXPECT_TRUE(essential.Contains(ids.b));
  EXPECT_FALSE(essential.Contains(ids.a));
  EXPECT_TRUE(essential.IsFinite());
}

TEST(BottomUpSkipRunTest, AgreesWithFullRunAndSkips) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 200, .num_labels = 3});
    DocIds ids = IdsOf(d);
    Sta sta = StaForAWithBDescendant(ids.a, ids.b);
    TreeIndex index(d);
    StaRunResult full = BottomUpRun(sta, d);
    JumpRunResult skip = BottomUpSkipRun(sta, d, index);
    ASSERT_EQ(skip.accepting, full.accepting);
    if (!full.accepting) continue;
    EXPECT_EQ(skip.selected, full.selected);
    for (NodeId n = 0; n < d.num_nodes(); ++n) {
      if (skip.states[n] != kNoState) {
        EXPECT_EQ(skip.states[n], full.states[n]);
      } else {
        // Skipped nodes provably sit in q0.
        EXPECT_EQ(full.states[n], sta.bottoms()[0]);
      }
    }
    // Visited covers at least the relevant nodes.
    std::vector<NodeId> relevant =
        BottomUpRelevantNodes(sta, d, full.states);
    EXPECT_TRUE(IsSubset(relevant, skip.visited));
  }
}

TEST(BottomUpSkipRunTest, SkipsLargeBFreeRegions) {
  std::string spec = "r(a(b)";
  for (int i = 0; i < 400; ++i) spec += ",c(c,c)";
  spec += ")";
  Document d = TreeOf(spec);
  DocIds ids = IdsOf(d);
  Sta sta = StaForAWithBDescendant(ids.a, ids.b);
  TreeIndex index(d);
  JumpRunResult skip = BottomUpSkipRun(sta, d, index);
  ASSERT_TRUE(skip.accepting);
  EXPECT_EQ(skip.selected, (std::vector<NodeId>{1}));
  // The c-forest after the a(b) island is q0-only and skipped.
  EXPECT_LT(skip.stats.nodes_visited, 10);
}

}  // namespace
}  // namespace xpwqo
