#include "xpath/compile.h"

#include <gtest/gtest.h>

#include "asta/eval.h"
#include "asta_support.h"
#include "test_util.h"
#include "tree/builder.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

using testing_util::AstaOracleSelect;
using testing_util::RandomTree;
using testing_util::TreeOf;

Asta Compile(std::string_view xpath, Alphabet* alphabet) {
  auto path = ParseXPath(xpath);
  EXPECT_TRUE(path.ok()) << path.status();
  auto asta = CompileToAsta(*path, alphabet);
  EXPECT_TRUE(asta.ok()) << asta.status();
  return std::move(asta).value();
}

std::vector<NodeId> Eval(std::string_view xpath, const Document& doc) {
  Asta asta = Compile(xpath, doc.alphabet_ptr().get());
  TreeIndex index(doc);
  return EvalAsta(asta, index).nodes;
}

TEST(CompileTest, Example41Structure) {
  // //a//b[c] must compile to the three-state automaton of Example 4.1
  // (one state per step plus one for the predicate).
  Alphabet alphabet;
  Asta asta = Compile("//a//b[c]", &alphabet);
  EXPECT_EQ(asta.num_states(), 3);
  // q for //b[c] selects; the predicate state does not.
  int selecting = 0;
  for (const auto& t : asta.transitions()) selecting += t.selecting;
  EXPECT_EQ(selecting, 1);
}

TEST(CompileTest, DescendantChain) {
  Document d = TreeOf("r(a(x(b),b),b)");
  EXPECT_EQ(Eval("//a//b", d), (std::vector<NodeId>{3, 4}));
}

TEST(CompileTest, AbsoluteChildPath) {
  Document d = TreeOf("site(regions(item),people(person))");
  EXPECT_EQ(Eval("/site/regions", d), (std::vector<NodeId>{1}));
  EXPECT_EQ(Eval("/site/regions/item", d), (std::vector<NodeId>{2}));
  EXPECT_TRUE(Eval("/regions", d).empty());  // root is not 'regions'
}

TEST(CompileTest, RootSelection) {
  Document d = TreeOf("site(a)");
  EXPECT_EQ(Eval("/site", d), (std::vector<NodeId>{0}));
  EXPECT_EQ(Eval("//site", d), (std::vector<NodeId>{0}));
}

TEST(CompileTest, StarStep) {
  Document d = TreeOf("site(regions(item(x),item(y)),people(item))");
  // /site/*/item: items under regions and people.
  EXPECT_EQ(Eval("/site/*/item", d), (std::vector<NodeId>{2, 4, 7}));
}

TEST(CompileTest, ChildPredicate) {
  Document d = TreeOf("r(person(address),person(phone),person)");
  EXPECT_EQ(Eval("//person[address]", d), (std::vector<NodeId>{1}));
  EXPECT_EQ(Eval("//person[address or phone]", d),
            (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(Eval("//person[not(address)]", d), (std::vector<NodeId>{3, 5}));
}

TEST(CompileTest, DescendantPredicate) {
  Document d = TreeOf("r(li(x(kw)),li(kw),li(x))");
  EXPECT_EQ(Eval("//li[.//kw]", d), (std::vector<NodeId>{1, 4}));
}

TEST(CompileTest, MultiStepPredicate) {
  Document d = TreeOf("r(item(mailbox(mail(date))),item(mailbox(mail)))");
  EXPECT_EQ(Eval("//item[mailbox/mail/date]", d), (std::vector<NodeId>{1}));
  EXPECT_EQ(Eval("//item[mailbox/mail]", d), (std::vector<NodeId>{1, 5}));
}

TEST(CompileTest, PredicateThenPath) {
  Document d = TreeOf("r(item(mailbox(mail(date)),mailbox(mail)),item)");
  // Q09 shape: //item[mailbox/mail/date]/mailbox/mail — both mails of the
  // qualifying item are selected.
  EXPECT_EQ(Eval("//item[mailbox/mail/date]/mailbox/mail", d),
            (std::vector<NodeId>{3, 6}));
}

TEST(CompileTest, FollowingSibling) {
  Document d = TreeOf("r(a,b,c,b)");
  // /r/a/following-sibling::b.
  EXPECT_EQ(Eval("/r/a/following-sibling::b", d), (std::vector<NodeId>{2, 4}));
  EXPECT_TRUE(Eval("/r/c/following-sibling::a", d).empty());
}

TEST(CompileTest, AttributeStep) {
  TreeBuilder b;
  b.BeginElement("r");
  b.BeginElement("item");
  b.AddAttribute("id", "x");
  b.EndElement();
  b.BeginElement("item");
  b.EndElement();
  b.EndElement();
  Document d = std::move(b.Finish()).value();
  EXPECT_EQ(Eval("//item/@id", d), (std::vector<NodeId>{2}));
  EXPECT_EQ(Eval("//item[@id]", d), (std::vector<NodeId>{1}));
}

TEST(CompileTest, NestedPredicates) {
  Document d = TreeOf("r(a(b(c)),a(b))");
  EXPECT_EQ(Eval("//a[b[c]]", d), (std::vector<NodeId>{1}));
}

TEST(CompileTest, NodeAndTextTests) {
  TreeBuilder b;
  b.BeginElement("r");
  b.BeginElement("a");
  b.AddText("hello");
  b.EndElement();
  b.BeginElement("a");
  b.EndElement();
  b.EndElement();
  Document d = std::move(b.Finish()).value();
  EXPECT_EQ(Eval("//a[text()]", d), (std::vector<NodeId>{1}));
  EXPECT_EQ(Eval("//a/text()", d), (std::vector<NodeId>{2}));
}

TEST(CompileTest, StarExcludesAttributesAndText) {
  TreeBuilder b;
  b.BeginElement("r");
  b.BeginElement("a");
  b.AddAttribute("id", "1");
  b.AddText("t");
  b.BeginElement("e");
  b.EndElement();
  b.EndElement();
  b.EndElement();
  Document d = std::move(b.Finish()).value();
  // //a/*: only the element child.
  EXPECT_EQ(Eval("//a/*", d), (std::vector<NodeId>{4}));
  // //a/node(): text and element children; attributes are not children.
  EXPECT_EQ(Eval("//a/node()", d), (std::vector<NodeId>{3, 4}));
}

TEST(CompileTest, UnknownLabelSelectsNothing) {
  Document d = TreeOf("r(a)");
  EXPECT_TRUE(Eval("//zzz", d).empty());
  EXPECT_TRUE(Eval("//a[zzz]", d).empty());
  EXPECT_EQ(Eval("//a[not(zzz)]", d), (std::vector<NodeId>{1}));
}

TEST(CompileTest, MatchesHandWrittenAstasOnRandomTrees) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 150, .num_labels = 3});
    LabelId a = d.alphabet().Find("a");
    LabelId b = d.alphabet().Find("b");
    Asta hand = testing_util::AstaForDescADescB(a, b);
    TreeIndex index(d);
    AstaEvalResult hand_result = EvalAsta(hand, index);
    EXPECT_EQ(Eval("//a//b", d), hand_result.nodes) << seed;
  }
}

TEST(CompileTest, CompiledAutomataAgreeWithAstaOracle) {
  const char* queries[] = {
      "//a",          "//a//b",        "//a/b",
      "//a[b]",       "//a[.//b]",     "//a[b or c]//b",
      "//a[not(b)]",  "/r//b[c]",      "//a/following-sibling::b",
      "//*[b]",       "//a[b and c]",  "//a[b[c]]",
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 120, .num_labels = 3});
    TreeIndex index(d);
    for (const char* q : queries) {
      Asta asta = Compile(q, d.alphabet_ptr().get());
      AstaEvalResult got = EvalAsta(asta, index);
      EXPECT_EQ(got.nodes, AstaOracleSelect(asta, d)) << q << " seed " << seed;
    }
  }
}

TEST(CompileSuffixTest, SuffixSelectsWithinSubtree) {
  Document d = TreeOf("r(li(kw(em),x(em)),em)");
  auto path = ParseXPath("//li//kw//em");
  ASSERT_TRUE(path.ok());
  // Suffix from step 2 (//em) relative to a kw pivot.
  auto suffix = CompileSuffixToAsta(*path, 2, d.alphabet_ptr().get());
  ASSERT_TRUE(suffix.ok()) << suffix.status();
  TreeIndex index(d);
  // Evaluate below kw (node 2): strict descendants = {em3}.
  AstaEvalResult r =
      EvalAstaAt(*suffix, index, d.BinaryLeft(2), AstaEvalOptions{});
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{3}));
}

}  // namespace
}  // namespace xpwqo
