#include "asta/eval.h"

#include <gtest/gtest.h>

#include "asta_support.h"
#include "test_util.h"

namespace xpwqo {
namespace {

using testing_util::AstaForConjunctionOfDisjunctions;
using testing_util::AstaForDescADescB;
using testing_util::AstaForDescADescBWithC;
using testing_util::AstaOracleAccepts;
using testing_util::AstaOracleSelect;
using testing_util::RandomTree;
using testing_util::TreeOf;

struct DocIds {
  LabelId a, b, c;
};
DocIds IdsOf(const Document& d) {
  return {d.alphabet().Find("a"), d.alphabet().Find("b"),
          d.alphabet().Find("c")};
}

const AstaEvalOptions kNaive{false, false, false};
const AstaEvalOptions kJumpOnly{true, false, false};
const AstaEvalOptions kMemoOnly{false, true, false};
const AstaEvalOptions kOpt{true, true, true};
const AstaEvalOptions kAllConfigs[] = {
    kNaive, kJumpOnly, kMemoOnly, kOpt,
    {true, true, false},   // opt without info propagation
    {false, false, true},  // naive + info propagation
};

/// XML oracle for //a//b[c].
std::vector<NodeId> XmlOracleABC(const Document& d, DocIds ids) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < d.num_nodes(); ++n) {
    if (d.label(n) != ids.b) continue;
    bool has_a = false;
    for (NodeId p = d.parent(n); p != kNullNode; p = d.parent(p)) {
      if (d.label(p) == ids.a) has_a = true;
    }
    if (!has_a) continue;
    for (NodeId child = d.first_child(n); child != kNullNode;
         child = d.next_sibling(child)) {
      if (d.label(child) == ids.c) {
        out.push_back(n);
        break;
      }
    }
  }
  return out;
}

TEST(AstaEvalTest, Example41SmallTree) {
  //        r0
  //    a1      b6(c7)   <- b6 has no a ancestor
  //  b2(c3) b4(x5)
  Document d = TreeOf("r(a(b(c),b(x)),b(c))");
  DocIds ids = IdsOf(d);
  Asta asta = AstaForDescADescBWithC(ids.a, ids.b, ids.c);
  for (const AstaEvalOptions& opts : kAllConfigs) {
    TreeIndex index(d);
    AstaEvalResult r = EvalAsta(asta, index, opts);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.nodes, (std::vector<NodeId>{2}))
        << "jump=" << opts.jumping << " memo=" << opts.memoize;
  }
}

TEST(AstaEvalTest, SelectionRequiresAAncestorAndCChild) {
  Document d = TreeOf("r(b(c),a(b),a(b(c,c)))");
  DocIds ids = IdsOf(d);
  Asta asta = AstaForDescADescBWithC(ids.a, ids.b, ids.c);
  TreeIndex index(d);
  AstaEvalResult r = EvalAsta(asta, index, kOpt);
  EXPECT_EQ(r.nodes, XmlOracleABC(d, ids));
  ASSERT_EQ(r.nodes.size(), 1u);
}

TEST(AstaEvalTest, AcceptanceTracksNonEmptyMatch) {
  // Unlike STAs (where bottom states accept '#'), ASTA states accept only
  // through their formulas, so the compiled q0 accepts at the root exactly
  // when the query pattern occurs somewhere.
  Document no_match = TreeOf("r(x,y)");
  DocIds ids = IdsOf(no_match);
  Asta asta = AstaForDescADescB(ids.a, ids.b);
  TreeIndex index(no_match);
  AstaEvalResult r = EvalAsta(asta, index, kOpt);
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.nodes.empty());
  EXPECT_EQ(r.accepted, testing_util::AstaOracleAccepts(asta, no_match));

  Document match = TreeOf("r(a(b),y)");
  DocIds ids2 = IdsOf(match);
  Asta asta2 = AstaForDescADescB(ids2.a, ids2.b);
  TreeIndex index2(match);
  AstaEvalResult r2 = EvalAsta(asta2, index2, kOpt);
  EXPECT_TRUE(r2.accepted);
  EXPECT_EQ(r2.nodes.size(), 1u);
}

class AstaEvalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AstaEvalPropertyTest, AllConfigurationsAgreeWithOracle) {
  Document d = RandomTree(GetParam(), {.num_nodes = 180, .num_labels = 3});
  DocIds ids = IdsOf(d);
  TreeIndex index(d);
  std::vector<Asta> automata;
  automata.push_back(AstaForDescADescB(ids.a, ids.b));
  automata.push_back(AstaForDescADescBWithC(ids.a, ids.b, ids.c));
  automata.push_back(
      AstaForConjunctionOfDisjunctions(ids.a, {ids.b, ids.c, ids.c, ids.b}));
  for (const Asta& asta : automata) {
    std::vector<NodeId> expect = AstaOracleSelect(asta, d);
    bool expect_accept = AstaOracleAccepts(asta, d);
    for (const AstaEvalOptions& opts : kAllConfigs) {
      AstaEvalResult r = EvalAsta(asta, index, opts);
      ASSERT_EQ(r.accepted, expect_accept);
      ASSERT_EQ(r.nodes, expect)
          << "jump=" << opts.jumping << " memo=" << opts.memoize
          << " infoprop=" << opts.info_propagation;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AstaEvalPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

TEST(AstaEvalTest, SuccinctBackendAgrees) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 150, .num_labels = 3});
    DocIds ids = IdsOf(d);
    Asta asta = AstaForDescADescBWithC(ids.a, ids.b, ids.c);
    TreeIndex index(d);
    SuccinctTree tree(d);
    TreeIndex succinct_index(tree);
    AstaEvalResult pointer = EvalAsta(asta, index, kOpt);
    AstaEvalResult succinct = EvalAsta(asta, succinct_index, kMemoOnly);
    EXPECT_EQ(pointer.nodes, succinct.nodes);
    EXPECT_EQ(pointer.accepted, succinct.accepted);
    // The succinct backend with a succinct-backed index jumps too.
    AstaEvalResult jumping = EvalAsta(asta, succinct_index, kOpt);
    EXPECT_EQ(pointer.nodes, jumping.nodes);
    EXPECT_EQ(pointer.accepted, jumping.accepted);
  }
}

TEST(AstaEvalTest, JumpingVisitsFarFewerNodes) {
  // A big c-forest with two a(b(c)) islands.
  std::string spec = "r(";
  for (int i = 0; i < 400; ++i) spec += "c(c),";
  spec += "a(b(c)),a(x,b(c)))";
  Document d = TreeOf(spec);
  DocIds ids = IdsOf(d);
  Asta asta = AstaForDescADescBWithC(ids.a, ids.b, ids.c);
  TreeIndex index(d);
  AstaEvalResult naive = EvalAsta(asta, index, kNaive);
  AstaEvalResult jump = EvalAsta(asta, index, kOpt);
  EXPECT_EQ(naive.nodes, jump.nodes);
  EXPECT_EQ(jump.nodes.size(), 2u);
  // The naive run must touch the full document; the jumping run only the
  // islands (plus the c-children scanned by q2).
  EXPECT_GT(naive.stats.nodes_visited, 800);
  EXPECT_LT(jump.stats.nodes_visited, 20);
  EXPECT_GT(jump.stats.jumps, 0);
}

TEST(AstaEvalTest, MemoizationAmortizesLookups) {
  Document d = RandomTree(7, {.num_nodes = 5000, .num_labels = 3});
  DocIds ids = IdsOf(d);
  Asta asta = AstaForDescADescB(ids.a, ids.b);
  TreeIndex index(d);
  AstaEvalResult memo = EvalAsta(asta, index, kMemoOnly);
  // Far fewer memo entries than visited nodes: the |Q| factor is amortized.
  EXPECT_GT(memo.stats.nodes_visited, 1000);
  EXPECT_LT(memo.stats.memo_step_entries + memo.stats.memo_eval_entries,
            memo.stats.nodes_visited / 10);
  EXPECT_GT(memo.stats.memo_hits, 0);
}

/// A hand-built ASTA for /r/a[.//c]: q0 fires at the r root, qa scans the
/// root's children for a, qd checks .//c. qd is non-marking, which is what
/// lets information propagation prune it once the predicate is decided.
Asta AstaForAnchoredAWithCDescendant(LabelId r, LabelId a, LabelId c) {
  Asta asta;
  StateId q0 = asta.AddState(), qa = asta.AddState(), qd = asta.AddState();
  asta.AddTop(q0);
  FormulaArena& f = asta.formulas();
  asta.AddTransition(q0, LabelSet::Of({r}), false, f.Down(1, qa));
  asta.AddTransition(qa, LabelSet::Of({a}), true, f.Down(1, qd));
  asta.AddTransition(qa, LabelSet::All(), false, f.Down(2, qa));
  asta.AddTransition(qd, LabelSet::Of({c}), false, f.True());
  asta.AddTransition(qd, LabelSet::AllExcept({c}), false,
                     f.Or(f.Down(1, qd), f.Down(2, qd)));
  asta.Finalize();
  return asta;
}

TEST(AstaEvalTest, InfoPropagationChecksOneWitness) {
  // /r/a[.//c] over r(a(x(c), y(big...))): the predicate is decided by the
  // c inside a's first child, so information propagation prunes the scan of
  // the y-subtree (the predicate state qd is non-marking; no other state
  // ever enters y because the query is root-anchored).
  std::string spec = "r(a(x(c),y(y";
  for (int i = 0; i < 200; ++i) spec += ",y";
  spec += ")))";
  Document d = TreeOf(spec);
  LabelId r_label = d.alphabet().Find("r");
  LabelId a = d.alphabet().Find("a");
  LabelId c = d.alphabet().Find("c");
  Asta asta = AstaForAnchoredAWithCDescendant(r_label, a, c);
  AstaEvalOptions with = kNaive;
  with.info_propagation = true;
  AstaEvalOptions without = kNaive;
  TreeIndex index(d);
  AstaEvalResult r_with = EvalAsta(asta, index, with);
  AstaEvalResult r_without = EvalAsta(asta, index, without);
  EXPECT_EQ(r_with.nodes, r_without.nodes);
  ASSERT_EQ(r_with.nodes.size(), 1u);
  // One-witness semantics: the y-forest is never entered.
  EXPECT_LT(r_with.stats.nodes_visited, 10);
  EXPECT_GT(r_without.stats.nodes_visited, 200);
}

TEST(AstaEvalTest, Example41StatsMatchPaperIntuition) {
  // Figure 1's discussion: in {q0} jump to topmost a's; in {q0,q1} to b's.
  Document d = TreeOf("r(x(x),a(x(b(c)),b(c)),x)");
  DocIds ids = IdsOf(d);
  Asta asta = AstaForDescADescBWithC(ids.a, ids.b, ids.c);
  TreeIndex index(d);
  AstaEvalResult r = EvalAsta(asta, index, kOpt);
  EXPECT_EQ(r.nodes.size(), 2u);
  // Visited: the a, the two b's, and the c's checked below them — none of
  // the x's except where stepping was required.
  EXPECT_LE(r.stats.nodes_visited, 6);
}

TEST(AstaEvalTest, EmptyMaskSkipsSubtreesEvenWithoutJumping) {
  // A root-anchored automaton: q0 fires only on an 'r' root and descends
  // into qd; below non-matching nodes the r-set empties and even the naive
  // evaluator skips the subtree (the paper's Q01-style behaviour).
  Asta asta;
  {
    Document probe = TreeOf("r");  // to intern nothing; labels fixed below
    (void)probe;
  }
  Document d = TreeOf("r(x(y,y),s(y(y),y))");
  LabelId r_label = d.alphabet().Find("r");
  LabelId s_label = d.alphabet().Find("s");
  StateId q0 = asta.AddState(), qs = asta.AddState();
  asta.AddTop(q0);
  FormulaArena& f = asta.formulas();
  asta.AddTransition(q0, LabelSet::Of({r_label}), false, f.Down(1, qs));
  asta.AddTransition(qs, LabelSet::Of({s_label}), true, f.True());
  asta.AddTransition(qs, LabelSet::All(), false, f.Down(2, qs));
  asta.Finalize();
  TreeIndex index(d);
  AstaEvalResult r = EvalAsta(asta, index, kNaive);
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(d.LabelName(r.nodes[0]), "s");
  // Visited: root, x (scanned, subtree skipped: empty r-sets), s. The y
  // subtrees below x and s are never entered.
  EXPECT_LE(r.stats.nodes_visited, 3);
}


TEST(AstaEvalTest, ExampleC1StaysLinearInSize) {
  // Example C.1: //x[(a1 or a2) and ... and (a2n-1 or a2n)] has an ASTA of
  // 2n+1 states and 4n+2 transitions, while any STA is exponential (the DNF
  // of the first transition's formula has 2^n disjuncts).
  for (int n : {1, 2, 4, 8, 16}) {
    Asta asta;
    {
      std::vector<LabelId> as;
      for (int i = 0; i < 2 * n; ++i) as.push_back(100 + i);
      asta = AstaForConjunctionOfDisjunctions(99, as);
    }
    EXPECT_EQ(asta.num_states(), 2 * n + 1) << n;
    EXPECT_EQ(static_cast<int>(asta.transitions().size()), 4 * n + 2) << n;
  }
}

TEST(AstaEvalTest, ExampleC1Semantics) {
  // //x[(a or b) and (c or b)] over hand-built trees; children of x are the
  // witnesses (the qa states scan the first-child sibling chain).
  Document d = TreeOf("r(x(a,c),x(a),x(b),x(c))");
  LabelId x = d.alphabet().Find("x");
  LabelId a = d.alphabet().Find("a");
  LabelId b = d.alphabet().Find("b");
  LabelId c = d.alphabet().Find("c");
  Asta asta = AstaForConjunctionOfDisjunctions(x, {a, b, c, b});
  TreeIndex index(d);
  AstaEvalResult r = EvalAsta(asta, index, kOpt);
  // x1(a,c): (a|b) yes, (c|b) yes -> selected. x4(a): second conjunct fails.
  // x6(b): both conjuncts satisfied by b. x8(c): first conjunct fails.
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{1, 6}));
  EXPECT_EQ(r.nodes, testing_util::AstaOracleSelect(asta, d));
}

}  // namespace
}  // namespace xpwqo
