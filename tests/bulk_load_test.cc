// Collection::LoadAll: thread-pool bulk ingestion of many shards behind
// the one shared alphabet. Functional coverage (mixed good/malformed
// shards, duplicate names, spec-order registration, thread-count parity)
// plus a BulkLoadStress suite that races LoadAll against concurrent
// PrepareCached, and a lazy image's first touch against compiles and
// cursors — the documented safe concurrency — for the TSan pass.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "persist/index_image.h"

namespace xpwqo {
namespace {

class BulkLoadTest : public ::testing::Test {
 protected:
  // Writes `xml` to a unique temp file and returns its path; files are
  // removed in TearDown.
  std::string Shard(const std::string& xml) {
    const std::string path = ::testing::TempDir() + "/bulk_shard_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(paths_.size()) + ".xml";
    std::ofstream out(path, std::ios::binary);
    out << xml;
    out.close();
    paths_.push_back(path);
    return path;
  }

  // A well-formed shard with `n` <item> children carrying a keyword each.
  static std::string GoodXml(int n) {
    std::string xml = "<shard>";
    for (int i = 0; i < n; ++i) {
      xml += "<item id=\"i" + std::to_string(i) + "\"><keyword>k" +
             std::to_string(i) + "</keyword></item>";
    }
    xml += "</shard>";
    return xml;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(BulkLoadTest, MixedGoodAndMalformedShards) {
  Collection library;
  std::vector<Collection::BulkLoadSpec> specs;
  specs.push_back({"good0", Shard(GoodXml(2)), {}});
  specs.push_back({"broken", Shard("<a><b></a>"), {}});
  LoadOptions succinct;
  succinct.backend = TreeBackend::kSuccinct;
  specs.push_back({"good1", Shard(GoodXml(3)), succinct});
  specs.push_back({"missing", "/no/such/bulk_shard.xml", {}});

  Collection::BulkLoadReport report = library.LoadAll(specs, 2);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.failed, 2u);
  // Rows come back in spec order with per-shard status: one malformed
  // shard fails its own row and nothing else.
  EXPECT_EQ(report.rows[0].name, "good0");
  EXPECT_TRUE(report.rows[0].status.ok());
  EXPECT_EQ(report.rows[1].name, "broken");
  EXPECT_EQ(report.rows[1].status.code(), StatusCode::kParseError);
  EXPECT_TRUE(report.rows[2].status.ok());
  EXPECT_EQ(report.rows[3].status.code(), StatusCode::kNotFound);

  // Only the good shards registered, in spec order.
  EXPECT_EQ(library.names(), (std::vector<std::string>{"good0", "good1"}));
  EXPECT_EQ(library.Find("broken"), nullptr);
  ASSERT_NE(library.Find("good1"), nullptr);
  EXPECT_EQ(library.Find("good1")->backend(), TreeBackend::kSuccinct);

  auto query = library.Prepare("//item/keyword");
  ASSERT_TRUE(query.ok());
  auto all = library.RunAll(*query);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].result.nodes.size(), 2u);
  EXPECT_EQ((*all)[1].result.nodes.size(), 3u);
}

TEST_F(BulkLoadTest, DuplicateNamesFailTheirRowsOnly) {
  Collection library;
  ASSERT_TRUE(library.AddXmlString("taken", GoodXml(1)).ok());
  const std::string path = Shard(GoodXml(1));
  std::vector<Collection::BulkLoadSpec> specs = {
      {"taken", path, {}},  // collides with the collection
      {"fresh", path, {}},
      {"twice", path, {}},
      {"twice", path, {}},  // collides within the batch
  };
  Collection::BulkLoadReport report = library.LoadAll(specs, 4);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_EQ(report.rows[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(report.rows[1].status.ok());
  EXPECT_TRUE(report.rows[2].status.ok());  // first "twice" wins
  EXPECT_EQ(report.rows[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(library.names(),
            (std::vector<std::string>{"taken", "fresh", "twice"}));
}

TEST_F(BulkLoadTest, SharedAlphabetSpansParallelShards) {
  // Queries prepared before the bulk load must bind to labels the loaders
  // intern concurrently — the alphabet is the only shared, synchronized
  // piece of the fan-out.
  Collection library;
  auto query = library.Prepare("//item/keyword");
  ASSERT_TRUE(query.ok());

  std::vector<Collection::BulkLoadSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back({"shard" + std::to_string(i), Shard(GoodXml(i + 1)), {}});
  }
  Collection::BulkLoadReport report = library.LoadAll(specs, 4);
  EXPECT_EQ(report.loaded, 8u);
  EXPECT_EQ(report.failed, 0u);

  const LabelId item = library.alphabet_ptr()->Find("item");
  const LabelId keyword = library.alphabet_ptr()->Find("keyword");
  EXPECT_NE(item, kNoLabel);
  EXPECT_NE(keyword, kNoLabel);
  size_t total = 0;
  for (const std::string& name : library.names()) {
    const Engine* engine = library.Find(name);
    ASSERT_NE(engine, nullptr) << name;
    // Every engine shares the collection's alphabet object, not a copy.
    EXPECT_EQ(engine->alphabet_ptr(), library.alphabet_ptr()) << name;
  }
  auto all = library.RunAll(*query);
  ASSERT_TRUE(all.ok());
  for (const CollectionResult& row : *all) total += row.result.nodes.size();
  EXPECT_EQ(total, 1u + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST_F(BulkLoadTest, ThreadCountParity) {
  // threads=1 (inline) and threads=N (pool) must produce identical
  // collections and reports; threads=0 picks a hardware default and must
  // behave the same.
  std::vector<Collection::BulkLoadSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back({"s" + std::to_string(i), Shard(GoodXml(i + 1)), {}});
  }
  specs.push_back({"bad", Shard("<unclosed>"), {}});

  auto load_with = [&](unsigned threads) {
    auto library = std::make_unique<Collection>();
    Collection::BulkLoadReport report = library->LoadAll(specs, threads);
    EXPECT_EQ(report.loaded, 6u) << threads << " threads";
    EXPECT_EQ(report.failed, 1u) << threads << " threads";
    return library;
  };
  auto serial = load_with(1);
  auto pooled = load_with(4);
  auto defaulted = load_with(0);
  EXPECT_EQ(serial->names(), pooled->names());
  EXPECT_EQ(serial->names(), defaulted->names());
  for (auto* lib : {serial.get(), pooled.get(), defaulted.get()}) {
    auto query = lib->Prepare("//keyword");
    ASSERT_TRUE(query.ok());
    auto all = lib->RunAll(*query);
    ASSERT_TRUE(all.ok());
    size_t total = 0;
    for (const CollectionResult& row : *all) total += row.result.nodes.size();
    EXPECT_EQ(total, 21u);
  }
}

TEST_F(BulkLoadTest, EmptyBatchIsANoOp) {
  Collection library;
  Collection::BulkLoadReport report = library.LoadAll({}, 8);
  EXPECT_TRUE(report.rows.empty());
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(library.empty());
}

// The TSan target: LoadAll racing the documented-safe concurrent calls.
// Worker threads intern labels into the shared alphabet while another
// thread compiles fresh queries (which read it) through PrepareCached.
// Any unsynchronized access to the alphabet or the query cache shows up
// here under -DXPWQO_SANITIZE=thread.
TEST(BulkLoadStress, ConcurrentPrepareDuringLoadAll) {
  Collection library;
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  std::vector<Collection::BulkLoadSpec> specs;
  for (int i = 0; i < 12; ++i) {
    const std::string path = dir + "/bulk_stress_" + std::to_string(i) +
                             ".xml";
    std::ofstream out(path, std::ios::binary);
    if (i % 5 == 4) {
      out << "<broken><shard></broken>";  // malformed on purpose
    } else {
      out << "<doc><sec name=\"s" << i << "\"><p>text " << i
          << "</p><p>more</p></sec></doc>";
    }
    out.close();
    paths.push_back(path);
    specs.push_back({"doc" + std::to_string(i), path, {}});
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> prepared{0};
  std::thread preparer([&] {
    // Distinct query strings force fresh compilations (cache misses), so
    // this thread keeps interning labels while the loaders do the same.
    const char* const kQueries[] = {"//sec/p", "//p", "/doc//sec",
                                    "//sec[p]", "//doc"};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto q = library.PrepareCached(kQueries[i % 5]);
      if (q.ok()) prepared.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });

  Collection::BulkLoadReport report = library.LoadAll(specs, 4);
  stop.store(true, std::memory_order_relaxed);
  preparer.join();

  EXPECT_EQ(report.loaded, 10u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_GT(prepared.load(), 0u);
  auto query = library.PrepareCached("//sec/p");
  ASSERT_TRUE(query.ok());
  size_t total = 0;
  for (const std::string& name : library.names()) {
    auto cursor = library.OpenCursor(name, **query);
    ASSERT_TRUE(cursor.ok()) << name;
    total += cursor->Drain().size();
  }
  EXPECT_EQ(total, 20u);  // 10 good shards x 2 <p> each
  for (const std::string& p : paths) std::remove(p.c_str());
}

// A saved image registered lazily without a MANIFEST (xpathd's
// single-image mode) lands its label ids verbatim on first touch. Race that
// first touch against compiles of names no document carries and against
// cursors, both through strings and through a plan held from before the
// load: every answer must be right and the alphabet must end as the
// image's own.
TEST(BulkLoadStress, LazyFirstTouchRacesUnseenCompilesAndCursors) {
  auto built = Engine::FromXmlString(
      "<doc><sec><p>a</p><p>b</p></sec><sec><p>c</p><q/></sec></doc>",
      TreeBackend::kSuccinct);
  ASSERT_TRUE(built.ok());
  const std::string dir = ::testing::TempDir() + "bulk_lazy_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(SaveIndexImage(*built, dir).ok());
  const int image_labels = built->alphabet().size();

  for (int round = 0; round < 3; ++round) {
    Collection library;
    ASSERT_TRUE(library
                    .AddLazy("doc",
                             [dir](std::shared_ptr<Alphabet> alphabet) {
                               return OpenIndexImage(dir,
                                                     std::move(alphabet));
                             })
                    .ok());
    auto held = library.Prepare("//sec/p");
    ASSERT_TRUE(held.ok());
    std::atomic<bool> go{false};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 100; ++i) {
          const std::string n = std::to_string(t) + "_" + std::to_string(i);
          if (!library.PrepareCached("//n" + n).ok()) ++wrong;
          if (!library.PrepareCached("//sec[x" + n + "]/p").ok()) ++wrong;
        }
      });
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          auto cursor = t == 0 ? library.OpenCursor("doc", "//sec/p")
                               : library.OpenCursor("doc", *held);
          if (!cursor.ok() || cursor->Drain().size() != 3) ++wrong;
          auto none = library.OpenCursor("doc", "//sec[q]/zz");
          if (!none.ok() || !none->Drain().empty()) ++wrong;
        }
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(wrong.load(), 0) << "round " << round;
    EXPECT_EQ(library.alphabet_ptr()->size(), image_labels);
  }
}

}  // namespace
}  // namespace xpwqo
