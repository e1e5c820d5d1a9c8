// Persistence round-trip properties: build → Save → Open must preserve
// every query answer (across strategies and backends), serialization must
// be a fixpoint (an image-opened engine re-serializes byte-identically),
// and saved collections must reopen with names, shared-alphabet binding
// and lazy loading intact.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/engine.h"
#include "persist/fs_util.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "query_gen.h"
#include "test_util.h"
#include "util/random.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

using testing_util::QueryGenOptions;
using testing_util::RandomQuery;
using testing_util::RandomTree;
using testing_util::RandomTreeOptions;

std::string FreshDir(const char* tag) {
  // ctest runs each test as its own process, so the name needs the pid —
  // a process-local counter alone would collide across parallel tests.
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "xpwqo_persist_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  return dir;
}

/// Strategies an image-opened (succinct-backend) engine supports: all but
/// kBaseline, which steps a pointer Document the image never stores.
const EvalStrategy kImageStrategies[] = {
    EvalStrategy::kNaive,     EvalStrategy::kJumping,
    EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
    EvalStrategy::kHybrid,
};

void ExpectQueryParity(const Engine& built, const Engine& opened,
                       const std::string& query) {
  SCOPED_TRACE(query);
  for (const EvalStrategy strategy : kImageStrategies) {
    QueryOptions options;
    options.strategy = strategy;
    auto expect = built.Run(query, options);
    ASSERT_TRUE(expect.ok()) << expect.status();
    auto got = opened.Run(query, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->nodes, expect->nodes) << EvalStrategyName(strategy);
  }
}

TEST(PersistRoundtripTest, RandomCorpusQueryParityAcrossStrategies) {
  Random rng(20260808);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomTreeOptions tree_options;
    tree_options.num_nodes = 40 + static_cast<int>(seed) * 37;
    tree_options.num_labels = 2 + static_cast<int>(seed % 5);
    const Document doc = RandomTree(seed, tree_options);
    const std::string xml = SerializeXml(doc);
    SCOPED_TRACE("seed " + std::to_string(seed));

    auto built = Engine::FromXmlString(xml, TreeBackend::kSuccinct);
    ASSERT_TRUE(built.ok()) << built.status();
    const std::string dir = FreshDir("corpus");
    ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
    auto opened = OpenIndexImage(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened->backend(), TreeBackend::kSuccinct);
    EXPECT_EQ(opened->num_nodes(), built->num_nodes());

    QueryGenOptions query_options;
    query_options.num_labels = tree_options.num_labels;
    for (int q = 0; q < 8; ++q) {
      ExpectQueryParity(*built, *opened, RandomQuery(&rng, query_options));
    }
  }
}

TEST(PersistRoundtripTest, PointerBackendEngineSavesAndReopens) {
  // Saving converts the pointer tree to the succinct view; node ids are
  // preorder ranks on both, so answers (and PathTo) carry over.
  auto built = Engine::FromXmlString(
      "<lib><shelf><book/><book><note/></book></shelf><shelf/></lib>",
      TreeBackend::kPointer);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string dir = FreshDir("pointer");
  ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
  auto opened = OpenIndexImage(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ExpectQueryParity(*built, *opened, "//shelf/book");
  auto result = opened->Run("//book");
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->nodes.empty());
  EXPECT_EQ(opened->PathTo(result->nodes[0]), "/lib/shelf/book");
}

TEST(PersistRoundtripTest, SerializationIsAFixpoint) {
  for (uint64_t seed : {3u, 11u, 42u}) {
    RandomTreeOptions tree_options;
    tree_options.num_nodes = 150;
    tree_options.num_labels = 4;
    const std::string xml = SerializeXml(RandomTree(seed, tree_options));
    auto built = Engine::FromXmlString(xml, TreeBackend::kSuccinct);
    ASSERT_TRUE(built.ok()) << built.status();

    // Same engine, same bytes.
    const std::string image = SerializeIndexImage(*built);
    EXPECT_EQ(SerializeIndexImage(*built), image);

    // Opened engine, same bytes again: external-view structures
    // re-serialize to exactly the bytes they wrap.
    const std::string dir = FreshDir("fixpoint");
    ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
    auto opened = OpenIndexImage(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(SerializeIndexImage(*opened), image) << "seed " << seed;
  }
}

TEST(PersistRoundtripTest, ValidateReportsLayout) {
  auto built = Engine::FromXmlString("<a v='1'><b/><b><c>hi</c></b></a>",
                                     TreeBackend::kSuccinct);
  ASSERT_TRUE(built.ok());
  const std::string image = SerializeIndexImage(*built);
  auto checked = ValidateIndexImage(
      reinterpret_cast<const uint8_t*>(image.data()), image.size());
  ASSERT_TRUE(checked.ok()) << checked.status();
  EXPECT_EQ(checked->version, 2u);
  EXPECT_EQ(checked->num_nodes, 6u);  // a, @v, b, b, c, #text
  EXPECT_EQ(checked->num_labels, 5u);
  EXPECT_EQ(checked->text_heap_bytes, 3u);  // "1" + "hi"
  // Sections are packed in order behind the header + table.
  EXPECT_EQ(checked->section_offset[0],
            persist::kHeaderBytes +
                persist::kSectionCount * persist::kSectionEntryBytes);
  for (int i = 1; i < 6; ++i) {
    EXPECT_EQ(checked->section_offset[i],
              persist::Align8(checked->section_offset[i - 1] +
                              checked->section_length[i - 1]));
  }
  // v2: the once-reserved text section carries the value store.
  EXPECT_GT(checked->section_length[5], 0u);
}

TEST(PersistRoundtripTest, TextSurvivesRoundtripWithFixpoint) {
  const std::string xml =
      "<site><item id='a1'><name>apple pie</name><price>7</price></item>"
      "<item id='b2'><name>banana</name><price>7</price></item>"
      "<item id='c3'><name>cherry</name></item></site>";
  auto built = Engine::FromXmlString(xml, TreeBackend::kSuccinct);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_NE(built->text_store(), nullptr);
  const std::string image = SerializeIndexImage(*built);

  const std::string dir = FreshDir("text");
  ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
  auto opened = OpenIndexImage(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  // The mapped TextStore re-serializes to exactly the bytes it wraps.
  EXPECT_EQ(SerializeIndexImage(*opened), image);
  ASSERT_NE(opened->text_store(), nullptr);
  EXPECT_EQ(opened->text_store()->num_values(),
            built->text_store()->num_values());

  // Value-predicate answers survive reopening, across every strategy the
  // image backend supports.
  for (const char* q :
       {"//item[@id='b2']/name", "//item[contains(name/text(),'an')]",
        "//item[price/text()='7']/name",
        "//item[not(price/text()='7')]"}) {
    ExpectQueryParity(*built, *opened, q);
  }
}

TEST(PersistRoundtripTest, SingleNodeDocumentRoundtrips) {
  auto built = Engine::FromXmlString("<only/>", TreeBackend::kSuccinct);
  ASSERT_TRUE(built.ok());
  const std::string dir = FreshDir("tiny");
  ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
  auto opened = OpenIndexImage(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->num_nodes(), 1);
  auto result = opened->Run("/only");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, std::vector<NodeId>{0});
}

TEST(PersistRoundtripTest, CollectionSaveReopenParity) {
  Collection library;
  ASSERT_TRUE(library
                  .AddXmlString("plain",
                                "<lib><book><keyword/></book></lib>")
                  .ok());
  LoadOptions succinct;
  succinct.backend = TreeBackend::kSuccinct;
  ASSERT_TRUE(library
                  .AddXmlString("spaced name %/é",
                                "<lib><book><keyword/><keyword/></book>"
                                "<book/></lib>",
                                succinct)
                  .ok());
  auto query = library.Prepare("//book//keyword");
  ASSERT_TRUE(query.ok());
  auto expect = library.RunAll(*query);
  ASSERT_TRUE(expect.ok());

  const std::string dir = FreshDir("collection");
  ASSERT_TRUE(SaveCollection(library, dir).ok());
  auto reopened = OpenCollection(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Names — including the awkward one — survive the manifest encoding.
  EXPECT_EQ(reopened->names(), library.names());

  // A query prepared against the reopened collection's own alphabet binds
  // to every lazily-loaded document.
  auto requery = reopened->Prepare("//book//keyword");
  ASSERT_TRUE(requery.ok());
  auto got = reopened->RunAll(*requery);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), expect->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].name, (*expect)[i].name);
    EXPECT_EQ((*got)[i].result.nodes, (*expect)[i].result.nodes);
  }
}

TEST(PersistRoundtripTest, CollectionReopensLazily) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", "<x><y/></x>").ok());
  ASSERT_TRUE(library.AddXmlString("b", "<x><y/><y/></x>").ok());
  const std::string dir = FreshDir("lazy");
  ASSERT_TRUE(SaveCollection(library, dir).ok());

  auto reopened = OpenCollection(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->size(), 2u);
  // Deleting one image before any query proves nothing was eagerly
  // mapped — and only the deleted document fails.
  ASSERT_EQ(std::remove((dir + "/doc00000.xpq").c_str()), 0);
  auto good = reopened->Get("b");
  ASSERT_TRUE(good.ok()) << good.status();
  auto result = (*good)->Run("//y");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 2u);
  auto bad = reopened->Get("a");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_EQ(reopened->Find("a"), nullptr);
}

// A saved image registered lazily with no MANIFEST, as xpathd serves a
// single image: its label ids must land verbatim in the collection's empty
// alphabet on first touch, whatever queries were compiled before.
constexpr const char* kLazyXml =
    "<r><book><t>x</t></book><book><t>y</t><u/></book></r>";

Collection LazyImageCollection(const std::string& dir) {
  Collection collection;
  EXPECT_TRUE(collection
                  .AddLazy("doc",
                           [dir](std::shared_ptr<Alphabet> alphabet) {
                             return OpenIndexImage(dir, std::move(alphabet));
                           })
                  .ok());
  return collection;
}

std::string SaveLazyImage(const char* tag) {
  auto built = Engine::FromXmlString(kLazyXml, TreeBackend::kSuccinct);
  EXPECT_TRUE(built.ok());
  const std::string dir = FreshDir(tag);
  EXPECT_TRUE(SaveIndexImage(*built, dir).ok());
  return dir;
}

TEST(PersistRoundtripTest, LazyImageOpensUnderItsFirstStringQuery) {
  Collection collection = LazyImageCollection(SaveLazyImage("lazy_first"));
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto cursor = collection.OpenCursor("doc", "//book/t");
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    std::vector<NodeId> nodes = cursor->Drain();
    ASSERT_EQ(nodes.size(), 2u);
    const Engine* engine = collection.Find("doc");
    ASSERT_NE(engine, nullptr);
    for (NodeId n : nodes) EXPECT_EQ(engine->PathTo(n), "/r/book/t");
  }
}

TEST(PersistRoundtripTest, LazyImageOpensAfterQueriesNamingUnseenLabels) {
  Collection collection = LazyImageCollection(SaveLazyImage("lazy_unseen"));
  auto unseen = collection.Prepare("//zzz");
  ASSERT_TRUE(unseen.ok());
  auto held = collection.Prepare("//book/t");
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(collection.alphabet_ptr()->size(), 0);

  auto engine = collection.Get("doc");
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(collection.alphabet_ptr()->Find("zzz"), kNoLabel);
  auto none = collection.RunAll(*unseen);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE((*none)[0].result.nodes.empty());

  // The plan held from before the load rebinds: one recompile, which the
  // string path for the same canonical query then shares.
  EXPECT_TRUE(held->stale());
  const int64_t misses = collection.query_cache()->misses();
  auto rebound = collection.OpenCursor("doc", *held);
  ASSERT_TRUE(rebound.ok()) << rebound.status();
  EXPECT_EQ(rebound->Drain().size(), 2u);
  auto by_string = collection.OpenCursor("doc", held->ToString());
  ASSERT_TRUE(by_string.ok()) << by_string.status();
  EXPECT_EQ(by_string->Drain().size(), 2u);
  EXPECT_EQ(collection.query_cache()->misses(), misses + 1);
}

TEST(PersistRoundtripTest, SaveThenResaveProducesIdenticalFiles) {
  auto built = Engine::FromXmlString("<r><s/><t><u/></t></r>",
                                     TreeBackend::kSuccinct);
  ASSERT_TRUE(built.ok());
  const std::string dir = FreshDir("resave");
  ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
  auto opened = OpenIndexImage(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  // Saving the opened engine over a second directory writes the same file.
  const std::string dir2 = FreshDir("resave2");
  ASSERT_TRUE(SaveIndexImage(*opened, dir2).ok());
  auto first = persist::ReadFileToString(dir + "/" + persist::kIndexImageFile);
  auto second =
      persist::ReadFileToString(dir2 + "/" + persist::kIndexImageFile);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
}

}  // namespace
}  // namespace xpwqo
