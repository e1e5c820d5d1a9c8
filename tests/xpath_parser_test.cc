#include "xpath/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xmark/workload.h"

namespace xpwqo {
namespace {

Path MustParse(std::string_view s) {
  auto p = ParseXPath(s);
  EXPECT_TRUE(p.ok()) << s << ": " << p.status();
  return std::move(p).value();
}

TEST(XPathLexerTest, ViaParserErrors) {
  EXPECT_FALSE(ParseXPath("//a $ b").ok());
  EXPECT_FALSE(ParseXPath("a:b").ok());  // stray ':'
}

TEST(XPathParserTest, SimpleAbsoluteChildren) {
  Path p = MustParse("/site/regions");
  EXPECT_TRUE(p.absolute);
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[0].test.name, "site");
  EXPECT_EQ(p.steps[1].axis, Axis::kChild);
  EXPECT_EQ(p.steps[1].test.name, "regions");
}

TEST(XPathParserTest, DescendantAbbreviation) {
  Path p = MustParse("//listitem//keyword");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
}

TEST(XPathParserTest, MixedAxes) {
  Path p = MustParse("/site/regions/*/item//keyword");
  ASSERT_EQ(p.steps.size(), 5u);
  EXPECT_EQ(p.steps[2].test.kind, NodeTestKind::kStar);
  EXPECT_EQ(p.steps[4].axis, Axis::kDescendant);
}

TEST(XPathParserTest, ExplicitAxes) {
  Path p = MustParse("/site/descendant::keyword");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
  Path q = MustParse("/a/following-sibling::b");
  EXPECT_EQ(q.steps[1].axis, Axis::kFollowingSibling);
  Path r = MustParse("/a/child::b");
  EXPECT_EQ(r.steps[1].axis, Axis::kChild);
}

TEST(XPathParserTest, AttributeAxis) {
  Path p = MustParse("/item/@id");
  EXPECT_EQ(p.steps[1].axis, Axis::kAttribute);
  EXPECT_EQ(p.steps[1].test.name, "@id");
  Path q = MustParse("/item/attribute::id");
  EXPECT_EQ(q.steps[1].axis, Axis::kAttribute);
  EXPECT_EQ(q.steps[1].test.name, "@id");
}

TEST(XPathParserTest, NodeTests) {
  EXPECT_EQ(MustParse("//node()").steps[0].test.kind, NodeTestKind::kNode);
  EXPECT_EQ(MustParse("//text()").steps[0].test.kind, NodeTestKind::kText);
  EXPECT_EQ(MustParse("//*").steps[0].test.kind, NodeTestKind::kStar);
}

TEST(XPathParserTest, SimplePredicate) {
  Path p = MustParse("//person[address]");
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, PredExpr::Kind::kPath);
  EXPECT_FALSE(pred.path.absolute);
  EXPECT_EQ(pred.path.steps[0].axis, Axis::kChild);
  EXPECT_EQ(pred.path.steps[0].test.name, "address");
}

TEST(XPathParserTest, BooleanPredicates) {
  Path p = MustParse("/site/people/person[ address and (phone or homepage) ]");
  const PredExpr& pred = *p.steps[2].predicates[0];
  ASSERT_EQ(pred.kind, PredExpr::Kind::kAnd);
  EXPECT_EQ(pred.lhs->kind, PredExpr::Kind::kPath);
  ASSERT_EQ(pred.rhs->kind, PredExpr::Kind::kOr);
}

TEST(XPathParserTest, NotPredicate) {
  Path p = MustParse("//a[ not(b or c) ]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  ASSERT_EQ(pred.kind, PredExpr::Kind::kNot);
  EXPECT_EQ(pred.lhs->kind, PredExpr::Kind::kOr);
}

TEST(XPathParserTest, DotSlashSlashInPredicate) {
  Path p = MustParse("//listitem[ .//keyword and .//emph ]//parlist");
  const PredExpr& pred = *p.steps[0].predicates[0];
  ASSERT_EQ(pred.kind, PredExpr::Kind::kAnd);
  EXPECT_EQ(pred.lhs->path.steps[0].axis, Axis::kDescendant);
  EXPECT_FALSE(pred.lhs->path.absolute);
}

TEST(XPathParserTest, MultiStepPredicatePath) {
  Path p = MustParse("//item[ mailbox/mail/date ]/mailbox/mail");
  const PredExpr& pred = *p.steps[0].predicates[0];
  ASSERT_EQ(pred.path.steps.size(), 3u);
  EXPECT_EQ(pred.path.steps[2].test.name, "date");
  ASSERT_EQ(p.steps.size(), 3u);
}

TEST(XPathParserTest, NestedPredicates) {
  Path p = MustParse("//a[ b[ c ] ]");
  const PredExpr& outer = *p.steps[0].predicates[0];
  ASSERT_EQ(outer.path.steps[0].predicates.size(), 1u);
}

TEST(XPathParserTest, MultiplePredicatesOnOneStep) {
  Path p = MustParse("//a[b][c]");
  EXPECT_EQ(p.steps[0].predicates.size(), 2u);
}

TEST(XPathParserTest, RelativeTopLevelIsDocumentRooted) {
  Path p = MustParse("site/regions");
  EXPECT_TRUE(p.absolute);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
}

TEST(XPathParserTest, LeadingDotSlashSlash) {
  Path p = MustParse(".//keyword");
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
}

TEST(XPathParserTest, AllFigure2QueriesParse) {
  for (const WorkloadQuery& q : Figure2Workload()) {
    auto p = ParseXPath(q.xpath);
    EXPECT_TRUE(p.ok()) << q.id << ": " << p.status();
  }
}

TEST(XPathParserTest, RoundTripThroughToString) {
  // Engines rebind a stale plan by recompiling its canonical form, so
  // ToString must parse back to the same query for every accepted input.
  std::vector<std::string> inputs;
  for (const WorkloadQuery& q : Figure2Workload()) inputs.push_back(q.xpath);
  for (const char* q : {
           // Value predicates, as the parity suites send them.
           "//a[text()='red']",
           "//b[@p='blue']",
           "//*[@q='red green']",
           "//c[contains(text(),'re')]",
           "//d[contains(@p,'ee')]",
           "//a[b/text()='green']",
           "//a[.//text()='deep blue']",
           "//b[c[@p='red']]",
           "//a/b[following-sibling::c/text()='blue']",
           "//a[not(text()='red')]",
           "//b[@p='red' or text()='blue']",
           "//a[b and text()='red']",
           "//a[not(contains(@p,'red')) and c]",
           "//b[attribute::q='green']",
           "//a[text()='no such value']",
           "//a[zzz/text()='red']",
           "//a[@nosuchattr='red']",
           "//person[@id='person0']/name",
           "//item[contains(.//keyword/text(),'a')]",
           "//open_auction[not(@id='open_auction0')]//increase",
           "//category[@id='category0' or @id='category1']",
           // Attribute steps outside predicates, and a literal holding '.
           "//b/@p",
           "//b/attribute::*",
           "//a[text()=\"it's\"]",
           "//a[contains(@p,\"'\")]",
       }) {
    inputs.push_back(q);
  }
  for (const std::string& input : inputs) {
    std::string canonical = ToString(MustParse(input));
    auto reparsed = ParseXPath(canonical);
    ASSERT_TRUE(reparsed.ok()) << input << " -> " << canonical << ": "
                               << reparsed.status();
    EXPECT_EQ(ToString(*reparsed), canonical) << input;
  }
}

TEST(XPathParserTest, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("/").ok());
  EXPECT_FALSE(ParseXPath("//a[").ok());
  EXPECT_FALSE(ParseXPath("//a[]").ok());
  EXPECT_FALSE(ParseXPath("//a]").ok());
  EXPECT_FALSE(ParseXPath("//a[b and]").ok());
  EXPECT_FALSE(ParseXPath("//a[not b]").ok());        // not needs parens
  EXPECT_FALSE(ParseXPath("//a[/b]").ok());           // absolute in pred
  EXPECT_FALSE(ParseXPath("//ancestor::a").ok());     // backward axis
  EXPECT_FALSE(ParseXPath("//a/..").ok());            // parent step
  EXPECT_FALSE(ParseXPath("//a//").ok());
  EXPECT_FALSE(ParseXPath("//comment()").ok());
}

}  // namespace
}  // namespace xpwqo
