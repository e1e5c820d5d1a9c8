// Collection tests: many documents behind one shared alphabet, one
// PreparedQuery spanning all of them (including documents loaded after the
// query was prepared), per-document cursors, and the error paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/collection.h"

namespace xpwqo {
namespace {

constexpr const char* kShelfA = R"(<library>
  <shelf><book><title>Automata</title><keyword>trees</keyword></book></shelf>
  <shelf><book><title>Indexes</title></book></shelf>
</library>)";

constexpr const char* kShelfB = R"(<library>
  <shelf><book><keyword>succinct</keyword><keyword>xpath</keyword></book>
  </shelf>
</library>)";

constexpr const char* kShelfC = R"(<archive>
  <box><book><keyword>legacy</keyword></book></box>
</archive>)";

TEST(CollectionTest, SharedAlphabetSpansDocumentsAndBackends) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", kShelfA).ok());
  LoadOptions succinct;
  succinct.backend = TreeBackend::kSuccinct;
  ASSERT_TRUE(library.AddXmlString("b", kShelfB, succinct).ok());
  EXPECT_EQ(library.size(), 2u);
  EXPECT_EQ(library.names(), (std::vector<std::string>{"a", "b"}));

  const Engine* a = library.Find("a");
  const Engine* b = library.Find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->alphabet_ptr(), library.alphabet_ptr());
  EXPECT_EQ(b->alphabet_ptr(), library.alphabet_ptr());
  EXPECT_EQ(a->backend(), TreeBackend::kPointer);
  EXPECT_EQ(b->backend(), TreeBackend::kSuccinct);
  // One interning of "book" across both documents.
  EXPECT_NE(library.alphabet_ptr()->Find("book"), kNoLabel);

  auto query = library.Prepare("//book//keyword");
  ASSERT_TRUE(query.ok());
  auto all = library.RunAll(*query);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].name, "a");
  EXPECT_EQ((*all)[0].result.nodes.size(), 1u);
  EXPECT_EQ((*all)[1].name, "b");
  EXPECT_EQ((*all)[1].result.nodes.size(), 2u);
}

TEST(CollectionTest, PreparedBeforeLoadingStillBinds) {
  // The serving pattern: the query set is prepared at startup; documents
  // arrive later. Prepare only looks names up, so 'book' and 'keyword' are
  // unknown here; the loads intern them, and RunAll rebinds the now-stale
  // plan to a fresh compilation.
  Collection library;
  auto query = library.Prepare("//book//keyword");
  ASSERT_TRUE(query.ok());
  auto empty = library.RunAll(*query);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(library.AddXmlString("b", kShelfB).ok());
  ASSERT_TRUE(library.AddXmlString("c", kShelfC).ok());
  auto all = library.RunAll(*query);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].result.nodes.size(), 2u);
  EXPECT_EQ((*all)[1].result.nodes.size(), 1u);
}

constexpr const char* kBookWithId = R"(<r><book id="1"><t>x</t></book></r>)";
constexpr const char* kBookWithLang =
    R"(<r><book lang="en"><t>y</t></book></r>)";

TEST(CollectionTest, WildcardPreparedBeforeLoadingMustReprepare) {
  // '*' compiles to "every label except the attribute and text labels
  // known now". The load below adds '@id' and '#text', which that plan
  // would select; the held plan is stale, so every bind runs a fresh
  // compilation instead of answering wrongly.
  Collection library;
  auto early = library.Prepare("//book/*");
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(library.AddXmlString("d", kBookWithId).ok());
  EXPECT_TRUE(early->stale());

  auto cursor = library.OpenCursor("d", *early);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<NodeId> nodes = cursor->Drain();
  ASSERT_EQ(nodes.size(), 1u);  // <t>, not @id or its #text
  EXPECT_EQ(library.Find("d")->PathTo(nodes[0]), "/r/book/t");
  auto all = library.RunAll(*early);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].result.nodes.size(), 1u);

  auto fresh = library.Prepare("//book/*");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->stale());
  // Compiling a name the alphabet lacks writes nothing, so the fresh
  // wildcard stays current.
  ASSERT_TRUE(library.Prepare("//chapter").ok());
  EXPECT_FALSE(fresh->stale());
  auto again = library.OpenCursor("d", *fresh);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Drain().size(), 1u);
}

TEST(CollectionTest, CachedWildcardRecompilesAfterNewAttributeLabel) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", kBookWithId).ok());
  auto cached = library.PrepareCached("//book/*");
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(library.AddXmlString("b", kBookWithLang).ok());  // new @lang

  // Holding the old compilation still answers right: the bind rebinds it
  // to the cache entry for its canonical string, compiling that once.
  const Engine* b = library.Find("b");
  ASSERT_NE(b, nullptr);
  const int64_t misses = library.query_cache()->misses();
  auto held = b->OpenCursor(*cached);
  ASSERT_TRUE(held.ok()) << held.status();
  std::vector<NodeId> nodes = held->Drain();
  ASSERT_EQ(nodes.size(), 1u);  // <t>, not @lang
  EXPECT_EQ(b->PathTo(nodes[0]), "/r/book/t");
  EXPECT_EQ(library.query_cache()->misses(), misses + 1);

  // The string path for the same canonical query hits that recompilation
  // instead of compiling again.
  auto cursor = library.OpenCursor("b", (*cached)->ToString());
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->Drain().size(), 1u);
  EXPECT_EQ(library.query_cache()->misses(), misses + 1);

  // The stale entry under the original string misses once and recompiles.
  auto by_string = library.OpenCursor("b", "//book/*");
  ASSERT_TRUE(by_string.ok());
  EXPECT_EQ(by_string->Drain().size(), 1u);
  EXPECT_EQ(library.query_cache()->misses(), misses + 2);
}

TEST(CollectionTest, WildcardExcludesLabelsItsOwnCompileInterned) {
  // Prepared on an empty alphabet, the plan is stale once the load below
  // interns 'book', 't' and '@id'; RunAll binds the recompilation, whose
  // '*' must still exclude the attribute label '@id'.
  Collection library;
  auto query = library.Prepare("//book[* and @id]");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(library
                  .AddXmlString(
                      "d", R"(<r><book id="1"/><book id="2"><t/></book></r>)")
                  .ok());
  auto all = library.RunAll(*query);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].result.nodes.size(), 1u);  // only the book with <t/>
}

TEST(CollectionTest, PerDocumentCursors) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", kShelfA).ok());
  LoadOptions succinct;
  succinct.backend = TreeBackend::kSuccinct;
  ASSERT_TRUE(library.AddXmlString("b", kShelfB, succinct).ok());
  auto query = library.Prepare("//keyword");
  ASSERT_TRUE(query.ok());
  size_t total = 0;
  for (const std::string& name : library.names()) {
    auto cursor = library.OpenCursor(name, *query);
    ASSERT_TRUE(cursor.ok()) << name;
    std::vector<NodeId> nodes = cursor->Drain();
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    total += nodes.size();
  }
  EXPECT_EQ(total, 3u);
  // LIMIT-1 per document: the multi-tenant "first hit anywhere" probe.
  auto cursor = library.OpenCursor("b", *query);
  ASSERT_TRUE(cursor.ok());
  EXPECT_NE(cursor->Next(), kNullNode);
}

TEST(CollectionTest, ErrorPaths) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", kShelfA).ok());
  // Duplicate names are rejected, the original stays.
  EXPECT_EQ(library.AddXmlString("a", kShelfB).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(library.size(), 1u);
  // Broken XML never registers a document.
  EXPECT_FALSE(library.AddXmlString("broken", "<a><b></a>").ok());
  EXPECT_EQ(library.size(), 1u);
  EXPECT_EQ(library.Find("broken"), nullptr);
  // Missing names: null from Find, NotFound from Get/OpenCursor.
  EXPECT_EQ(library.Find("nope"), nullptr);
  EXPECT_EQ(library.Get("nope").status().code(), StatusCode::kNotFound);
  auto query = library.Prepare("//book");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(library.OpenCursor("nope", *query).status().code(),
            StatusCode::kNotFound);
  // A query prepared on a different collection's alphabet is rejected.
  Collection other;
  ASSERT_TRUE(other.AddXmlString("a", kShelfA).ok());
  auto foreign = other.Prepare("//book");
  ASSERT_TRUE(foreign.ok());
  EXPECT_FALSE(library.RunAll(*foreign).ok());
}

TEST(CollectionTest, PrepareCachedCompilesOncePerCollection) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("a", kShelfA).ok());
  ASSERT_TRUE(library.AddXmlString("b", kShelfB).ok());
  auto first = library.PrepareCached("//book//keyword");
  ASSERT_TRUE(first.ok());
  auto second = library.PrepareCached("//book//keyword");
  ASSERT_TRUE(second.ok());
  // Same compilation object — compiled once per collection, not per call
  // (and not per document, as the old per-engine cache did).
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(library.query_cache()->misses(), 1u);
  EXPECT_EQ(library.query_cache()->hits(), 1u);
  // The string OpenCursor convenience goes through the same cache.
  auto cursor = library.OpenCursor("a", "//book//keyword");
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(library.query_cache()->hits(), 2u);
  EXPECT_EQ(cursor->Drain().size(), 1u);
  // Compile errors are not cached.
  EXPECT_FALSE(library.PrepareCached("//(((").ok());
  EXPECT_EQ(library.query_cache()->size(), 1u);
}

TEST(CollectionTest, MissingFilePropagates) {
  Collection library;
  EXPECT_EQ(library.AddXmlFile("gone", "/no/such/file.xml").code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(library.empty());
}

}  // namespace
}  // namespace xpwqo
