// Cross-engine parity for value-predicate queries ([text()='v'],
// [@attr='v'], [contains(...,'v')], and their boolean combinations): the
// pointer baseline evaluates the original path natively (the oracle), while
// the pointer, succinct, reopened-image and mixed (succinct index over a
// kept Document) engines run the relaxed plan plus the post-filter stage.
// All five must agree on every query, over a deterministic random
// text-bearing corpus and an XMark instance. Also covers the
// exists()/count() pushdown (visited-node counts must shrink when the
// first verified hit ends the run) and the post-filter work accounting
// surfaced through CursorStats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/prepared_query.h"
#include "persist/index_image.h"
#include "query_gen.h"
#include "tree/document.h"
#include "util/random.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

using testing_util::QueryGenOptions;
using testing_util::RandomQuery;

std::string FreshDir(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "xpwqo_pred_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// Strategies every engine path supports (kBaseline additionally runs on
/// the pointer engine as the oracle).
const EvalStrategy kStrategies[] = {
    EvalStrategy::kNaive,     EvalStrategy::kJumping,
    EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
    EvalStrategy::kHybrid,
};

/// The engine paths of the parity matrix, built from one XML string.
/// `mixed` keeps the pointer Document next to a succinct index: its value
/// filter navigates the succinct tree but reads values from the Document.
struct EngineMatrix {
  Engine pointer;
  Engine succinct;
  Engine reopened;
  Engine mixed;

  static EngineMatrix Build(const std::string& xml, const char* tag) {
    auto pointer = Engine::FromXmlString(xml, TreeBackend::kPointer);
    EXPECT_TRUE(pointer.ok()) << pointer.status();
    auto succinct = Engine::FromXmlString(xml, TreeBackend::kSuccinct);
    EXPECT_TRUE(succinct.ok()) << succinct.status();
    const std::string dir = FreshDir(tag);
    EXPECT_TRUE(SaveIndexImage(*succinct, dir).ok());
    auto reopened = OpenIndexImage(dir);
    EXPECT_TRUE(reopened.ok()) << reopened.status();
    Engine mixed =
        Engine::FromDocument(pointer->document(), TreeBackend::kSuccinct);
    return EngineMatrix{std::move(*pointer), std::move(*succinct),
                        std::move(*reopened), std::move(mixed)};
  }
};

void CheckParity(const EngineMatrix& m, const std::string& query) {
  SCOPED_TRACE(query);
  // Oracle: the baseline strategy on the pointer engine evaluates the
  // original path (value comparisons included) with independent code.
  QueryOptions baseline;
  baseline.strategy = EvalStrategy::kBaseline;
  auto expect = m.pointer.Run(query, baseline);
  ASSERT_TRUE(expect.ok()) << expect.status();

  struct {
    const Engine* engine;
    const char* name;
  } paths[] = {{&m.pointer, "pointer"},
               {&m.succinct, "succinct"},
               {&m.reopened, "reopened"},
               {&m.mixed, "mixed"}};
  for (const auto& p : paths) {
    for (const EvalStrategy strategy : kStrategies) {
      QueryOptions options;
      options.strategy = strategy;
      auto got = p.engine->Run(query, options);
      ASSERT_TRUE(got.ok()) << p.name << " " << EvalStrategyName(strategy)
                            << ": " << got.status();
      ASSERT_EQ(got->nodes, expect->nodes)
          << p.name << " " << EvalStrategyName(strategy);
    }
  }
}

/// Deterministic random corpus with value-bearing content: elements a..d,
/// attributes p/q, and text values drawn from a small vocabulary so that
/// equality and contains() comparisons both hit and miss.
std::string RandomValueXml(uint64_t seed) {
  Random rng(seed);
  const char* kWords[] = {"red", "green", "blue", "red green", "deep blue"};
  std::string xml;
  // Depth-bounded recursive generation, iteratively via an explicit stack
  // of pending close tags.
  struct Frame {
    char label;
    int children_left;
  };
  std::vector<Frame> stack;
  auto open = [&](char label, int children) {
    xml += '<';
    xml += label;
    if (rng.Bernoulli(0.5)) {
      xml += " p='";
      xml += kWords[rng.Uniform(5)];
      xml += '\'';
    }
    if (rng.Bernoulli(0.25)) {
      xml += " q='";
      xml += kWords[rng.Uniform(5)];
      xml += '\'';
    }
    xml += '>';
    if (rng.Bernoulli(0.6)) xml += kWords[rng.Uniform(5)];
    stack.push_back({label, children});
  };
  open('a', 24);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.children_left > 0 && stack.size() < 6) {
      --top.children_left;
      open(static_cast<char>('a' + rng.Uniform(4)),
           static_cast<int>(rng.Uniform(4)));
    } else {
      xml += "</";
      xml += top.label;
      xml += '>';
      stack.pop_back();
    }
  }
  return xml;
}

class PredicateParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateParityTest, RandomCorpusAllEnginePathsAgree) {
  const uint64_t seed = GetParam();
  const EngineMatrix m =
      EngineMatrix::Build(RandomValueXml(seed * 101 + 7), "corpus");
  const char* kQueries[] = {
      // Leaf comparisons on text and attributes.
      "//a[text()='red']",
      "//b[@p='blue']",
      "//*[@q='red green']",
      "//c[contains(text(),'re')]",
      "//d[contains(@p,'ee')]",
      // Comparison deeper in the predicate path.
      "//a[b/text()='green']",
      "//a[.//text()='deep blue']",
      "//b[c[@p='red']]",
      "//a/b[following-sibling::c/text()='blue']",
      // Boolean structure around value comparisons (not() must stay sound
      // under the pure-widening relaxation).
      "//a[not(text()='red')]",
      "//b[@p='red' or text()='blue']",
      "//a[b and text()='red']",
      "//a[not(contains(@p,'red')) and c]",
      // Attribute axis spelled out.
      "//b[attribute::q='green']",
      // Never-matching literals and never-interned names.
      "//a[text()='no such value']",
      "//a[zzz/text()='red']",
      "//a[@nosuchattr='red']",
  };
  for (const char* q : kQueries) CheckParity(m, q);

  // Randomized structural queries keep the relaxed planner honest on the
  // same corpus (labels a..d match the generator's alphabet).
  Random rng(seed * 31 + 3);
  QueryGenOptions gen;
  gen.num_labels = 4;
  for (int i = 0; i < 6; ++i) CheckParity(m, RandomQuery(&rng, gen));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateParityTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(PredicateQueryTest, XMarkValueQueriesAgreeAcrossEngines) {
  XMarkOptions opt;
  opt.scale = 0.003;
  const Document doc = GenerateXMark(opt);
  const EngineMatrix m = EngineMatrix::Build(SerializeXml(doc), "xmark");

  // Pull real values out of the document so the equality queries are
  // guaranteed witnesses (XMark text is generated from a word list).
  std::string keyword_text;
  std::string id_value;
  const Alphabet& alphabet = doc.alphabet();
  const LabelId text_label = alphabet.Find("#text");
  const LabelId keyword_label = alphabet.Find("keyword");
  const LabelId id_label = alphabet.Find("@id");
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (keyword_text.empty() && doc.label(n) == text_label &&
        doc.parent(n) != kNullNode &&
        doc.label(doc.parent(n)) == keyword_label &&
        doc.text(n).find('\'') == std::string::npos) {
      keyword_text = doc.text(n);
    }
    if (id_value.empty() && doc.label(n) == id_label) {
      id_value = doc.text(n);
    }
  }
  ASSERT_FALSE(keyword_text.empty());
  ASSERT_FALSE(id_value.empty());

  const std::string queries[] = {
      "//keyword[text()='" + keyword_text + "']",
      "//*[@id='" + id_value + "']",
      "//person[@id='person0']/name",
      "//item[contains(.//keyword/text(),'a')]",
      "//person[contains(@id,'person1')]",
      "//open_auction[not(@id='open_auction0')]//increase",
      "//annotation[description and not(.//keyword[contains(text(),'q')])]",
      "//category[@id='category0' or @id='category1']",
  };
  for (const std::string& q : queries) CheckParity(m, q);
}

TEST(PredicateQueryTest, ExistsAndCountPushDownThroughTheFilter) {
  XMarkOptions opt;
  opt.scale = 0.004;
  const Document doc = GenerateXMark(opt);
  auto engine = Engine::FromXmlString(SerializeXml(doc), TreeBackend::kSuccinct);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const std::string queries[] = {
      "//keyword[contains(text(),'a')]",       // value predicate
      "//listitem//keyword",                   // structural control
  };
  for (const std::string& q : queries) {
    SCOPED_TRACE(q);
    auto all = engine->Run(q);
    ASSERT_TRUE(all.ok()) << all.status();
    ASSERT_GT(all->nodes.size(), 1u) << "corpus too small to be meaningful";

    CursorStats count_stats;
    auto count = engine->Count(q, {}, &count_stats);
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, all->nodes.size());

    CursorStats exists_stats;
    auto exists = engine->Exists(q, {}, &exists_stats);
    ASSERT_TRUE(exists.ok()) << exists.status();
    EXPECT_TRUE(*exists);
    // The existence check stops at the first (verified) hit: it must drive
    // strictly less of the document than the full count.
    EXPECT_LT(exists_stats.eval.nodes_visited, count_stats.eval.nodes_visited);
  }

  // A never-satisfied value predicate: exists() is false and the filter
  // reports every candidate as checked and rejected.
  CursorStats stats;
  auto none = engine->Exists("//keyword[text()='no such keyword text']", {},
                             &stats);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_FALSE(*none);
  EXPECT_GT(stats.filter_checked, 0);
  EXPECT_EQ(stats.filter_checked, stats.filter_rejected);
}

TEST(PredicateQueryTest, FilterStatsAccountForCheckedAndRejected) {
  auto engine = Engine::FromXmlString(
      "<r><a>x</a><a>y</a><a>x</a><a/><b>x</b></r>", TreeBackend::kSuccinct);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto cursor = engine->OpenCursor("//a[text()='x']");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  const std::vector<NodeId> hits = cursor->Drain();
  EXPECT_EQ(hits.size(), 2u);
  const CursorStats stats = cursor->TakeStats();
  // Four <a> candidates survive the relaxed plan; two carry text 'x'.
  EXPECT_EQ(stats.filter_checked, 4);
  EXPECT_EQ(stats.filter_rejected, 2);

  // No value predicates → the filter stage is absent entirely.
  auto plain = engine->OpenCursor("//a");
  ASSERT_TRUE(plain.ok());
  plain->Drain();
  EXPECT_EQ(plain->TakeStats().filter_checked, 0);
}

}  // namespace
}  // namespace xpwqo
