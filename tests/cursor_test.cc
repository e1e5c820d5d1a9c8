// ResultCursor / PreparedQuery serving-API tests: cursor-vs-Run parity,
// LIMIT-k early termination (results *and* visit counts), SeekGe semantics,
// the string-overload LRU compiled-query cache, and const-thread-safety of
// a shared PreparedQuery.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "core/engine.h"
#include "serve/query_context.h"
#include "sta/minimize.h"
#include "sta/topdown_jump.h"
#include "test_util.h"
#include "xmark/generator.h"
#include "xmark/workload.h"
#include "xpath/compile_sta.h"

namespace xpwqo {
namespace {

const Engine& PointerEngine() {
  static Engine* engine = [] {
    XMarkOptions opt;
    opt.scale = 0.004;
    return new Engine(Engine::FromDocument(GenerateXMark(opt)));
  }();
  return *engine;
}

const Engine& SuccinctEngine() {
  static Engine* engine = [] {
    XMarkOptions opt;
    opt.scale = 0.004;
    return new Engine(Engine::FromDocument(GenerateXMark(opt),
                                           TreeBackend::kSuccinct));
  }();
  return *engine;
}

constexpr EvalStrategy kAllStrategies[] = {
    EvalStrategy::kNaive,     EvalStrategy::kJumping,
    EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
    EvalStrategy::kHybrid,    EvalStrategy::kBaseline,
};

TEST(ResultCursorTest, DrainMatchesRunOnEveryStrategyAndBackend) {
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    for (const WorkloadQuery& wq : Figure2Workload()) {
      auto query = engine->Compile(wq.xpath);
      ASSERT_TRUE(query.ok()) << wq.id;
      for (EvalStrategy s : kAllStrategies) {
        QueryOptions opts;
        opts.strategy = s;
        if (s == EvalStrategy::kBaseline && !engine->has_document()) continue;
        auto run = engine->Run(*query, opts);
        ASSERT_TRUE(run.ok()) << wq.id << " " << EvalStrategyName(s);
        auto cursor = engine->OpenCursor(*query, opts);
        ASSERT_TRUE(cursor.ok()) << wq.id << " " << EvalStrategyName(s);
        EXPECT_EQ(cursor->Drain(), run->nodes)
            << wq.id << " " << EvalStrategyName(s) << " "
            << TreeBackendName(engine->backend());
      }
    }
  }
}

TEST(ResultCursorTest, LimitKIsAPrefixOfTheFullRun) {
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    for (const char* xpath :
         {"//listitem//keyword", "//keyword", "/site//keyword",
          "//listitem[.//keyword]//emph"}) {
      auto query = engine->Compile(xpath);
      ASSERT_TRUE(query.ok());
      auto full = engine->Run(*query);
      ASSERT_TRUE(full.ok());
      for (size_t k : {size_t{1}, size_t{10}, size_t{1000}}) {
        auto cursor = engine->OpenCursor(*query);
        ASSERT_TRUE(cursor.ok());
        std::vector<NodeId> got = cursor->Drain(k);
        const size_t expect = std::min(k, full->nodes.size());
        ASSERT_EQ(got.size(), expect) << xpath;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), full->nodes.begin()))
            << xpath << " k=" << k;
      }
    }
  }
}

TEST(ResultCursorTest, StreamingLimitVisitsLessThanFullRun) {
  // The acceptance property of the serving API: LIMIT-1 over a
  // jump-friendly query drives a small fraction of the document, with the
  // visit counters scaling in k.
  const Engine& engine = SuccinctEngine();
  auto query = engine.Compile("//listitem//keyword");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query->streamable());
  auto full = engine.Run(*query);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->nodes.size(), 50u);

  auto visited_after = [&](size_t k) {
    auto cursor = engine.OpenCursor(*query);
    EXPECT_TRUE(cursor.ok());
    EXPECT_TRUE(cursor->streaming());
    cursor->Drain(k);
    return cursor->TakeStats().eval.nodes_visited;
  };
  const int64_t v1 = visited_after(1);
  const int64_t v10 = visited_after(10);
  const int64_t vall = full->stats.nodes_visited;
  EXPECT_LE(v1, v10);
  EXPECT_LE(v10, vall);
  EXPECT_LT(v1, vall);  // LIMIT-1 must not sweep the document
}

TEST(ResultCursorTest, HybridCursorStreams) {
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    auto query = engine->Compile("//listitem//keyword");
    ASSERT_TRUE(query.ok());
    ASSERT_NE(query->hybrid(), nullptr);
    QueryOptions opts;
    opts.strategy = EvalStrategy::kHybrid;
    auto full = engine->Run(*query, opts);
    ASSERT_TRUE(full.ok());
    auto cursor = engine->OpenCursor(*query, opts);
    ASSERT_TRUE(cursor.ok());
    EXPECT_TRUE(cursor->streaming());
    EXPECT_EQ(cursor->Drain(), full->nodes);
    CursorStats stats = cursor->TakeStats();
    EXPECT_TRUE(stats.used_hybrid);

    auto limited = engine->OpenCursor(*query, opts);
    ASSERT_TRUE(limited.ok());
    std::vector<NodeId> first = limited->Drain(3);
    ASSERT_EQ(first.size(), std::min<size_t>(3, full->nodes.size()));
    EXPECT_TRUE(
        std::equal(first.begin(), first.end(), full->nodes.begin()));
  }
}

TEST(ResultCursorTest, SeekGeSkipsForward) {
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    for (EvalStrategy s :
         {EvalStrategy::kOptimized, EvalStrategy::kHybrid,
          EvalStrategy::kNaive, EvalStrategy::kBaseline}) {
      if (s == EvalStrategy::kBaseline && !engine->has_document()) continue;
      QueryOptions opts;
      opts.strategy = s;
      auto query = engine->Compile("//keyword");
      ASSERT_TRUE(query.ok());
      auto full = engine->Run(*query, opts);
      ASSERT_TRUE(full.ok());
      ASSERT_GT(full->nodes.size(), 4u);
      const NodeId target = full->nodes[full->nodes.size() / 2] + 1;
      auto expect_it = std::lower_bound(full->nodes.begin(),
                                        full->nodes.end(), target);
      ASSERT_NE(expect_it, full->nodes.end());
      auto cursor = engine->OpenCursor(*query, opts);
      ASSERT_TRUE(cursor.ok());
      EXPECT_EQ(cursor->Next(), full->nodes.front());
      EXPECT_EQ(cursor->SeekGe(target), *expect_it)
          << EvalStrategyName(s);
      // The cursor keeps going in document order after the seek.
      if (expect_it + 1 != full->nodes.end()) {
        EXPECT_EQ(cursor->Next(), *(expect_it + 1));
      }
      // Seeking past everything exhausts.
      EXPECT_EQ(cursor->SeekGe(engine->num_nodes()), kNullNode);
      EXPECT_TRUE(cursor->exhausted());
    }
  }
}

TEST(ResultCursorTest, StringOverloadCachesCompilations) {
  XMarkOptions opt;
  opt.scale = 0.002;
  Engine engine = Engine::FromDocument(GenerateXMark(opt));
  auto r1 = engine.Run("//keyword");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.query_cache_hits, 0);
  auto r2 = engine.Run("//keyword");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.query_cache_hits, 1);
  EXPECT_EQ(r2->nodes, r1->nodes);
  // A different string compiles fresh; re-running the first still hits.
  ASSERT_TRUE(engine.Run("//listitem").ok());
  auto r3 = engine.Run("//keyword", QueryOptions{EvalStrategy::kNaive});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->stats.query_cache_hits, 2);
  EXPECT_EQ(r3->nodes, r1->nodes);
  // String-opened cursors share the cache and retain the compilation.
  auto cursor = engine.OpenCursor("//keyword");
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->TakeStats().eval.query_cache_hits, 3);
  EXPECT_EQ(cursor->Drain(), r1->nodes);
}

TEST(ResultCursorTest, QueryFromForeignAlphabetIsRejected) {
  auto other = std::make_shared<Alphabet>();
  auto query = PreparedQuery::Prepare("//keyword", other);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(PointerEngine().Run(*query).ok());
  EXPECT_FALSE(PointerEngine().OpenCursor(*query).ok());
}

TEST(ResultCursorTest, BaselineRequiresPointerDocument) {
  auto engine = Engine::FromXmlString("<a><b/><b/></a>",
                                      TreeBackend::kSuccinct);
  ASSERT_TRUE(engine.ok());
  ASSERT_FALSE(engine->has_document());
  QueryOptions opts;
  opts.strategy = EvalStrategy::kBaseline;
  EXPECT_FALSE(engine->Run("//b", opts).ok());
  EXPECT_FALSE(engine->OpenCursor("//b", opts).ok());
  // The automaton strategies still serve the streamed engine.
  auto cursor = engine->OpenCursor("//b");
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->Drain().size(), 2u);
}

TEST(ResultCursorTest, EmptyResultCursorsExhaustImmediately) {
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    auto cursor = engine->OpenCursor("//no_such_label//keyword");
    ASSERT_TRUE(cursor.ok());
    EXPECT_EQ(cursor->Next(), kNullNode);
    EXPECT_TRUE(cursor->exhausted());
    EXPECT_EQ(cursor->TakeStats().returned, 0);
  }
}

TEST(ResultCursorTest, GovernedRunReportsItsStop) {
  // Run drains the same governed producer a cursor opens, so a limit that
  // stops the producer must come back as Run's error, never as a short
  // answer reported OK.
  for (const Engine* engine : {&PointerEngine(), &SuccinctEngine()}) {
    for (EvalStrategy s : {EvalStrategy::kOptimized, EvalStrategy::kHybrid}) {
      SCOPED_TRACE(std::string(TreeBackendName(engine->backend())) + " " +
                   EvalStrategyName(s));
      QueryOptions opts;
      opts.strategy = s;
      auto full = engine->Run("//listitem//keyword", opts);
      ASSERT_TRUE(full.ok()) << full.status();
      ASSERT_GT(full->stats.nodes_visited + full->hybrid.nodes_visited, 50);

      ExecControl budget;
      budget.max_visited = 50;
      opts.control = &budget;
      auto short_run = engine->Run("//listitem//keyword", opts);
      EXPECT_EQ(short_run.status().code(), StatusCode::kResourceExhausted);

      // An already-cancelled token; checking at every charge makes the
      // producer see it on its first visit of this small document.
      CancelToken token;
      token.Cancel();
      ExecControl cancelled;
      cancelled.cancel = token.flag();
      cancelled.check_interval = 1;
      opts.control = &cancelled;
      auto cancelled_run = engine->Run("//listitem//keyword", opts);
      EXPECT_EQ(cancelled_run.status().code(), StatusCode::kCancelled);
    }
  }
}

TEST(ResultCursorTest, OneCountdownAcrossRunAndFilter) {
  // The relaxed //a run and the value filter each charge fewer than one
  // check interval here; only their shared countdown (plus one charge per
  // returned node) reaches a check, so an expired deadline must stop the
  // query instead of letting it answer.
  std::string xml = "<r>";
  for (int i = 0; i < 400; ++i) {
    xml += "<a id=\"v" + std::to_string(i % 3) + "\"/>";
  }
  xml += "</r>";
  for (TreeBackend backend : {TreeBackend::kPointer, TreeBackend::kSuccinct}) {
    SCOPED_TRACE(TreeBackendName(backend));
    auto engine = Engine::FromXmlString(xml, backend);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto full = engine->Run("//a[@id='v1']");
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(full->nodes.size(), 133u);

    ExecControl expired;
    expired.deadline = ExecControl::Clock::now() - std::chrono::seconds(1);
    QueryOptions opts;
    opts.control = &expired;
    auto late = engine->Run("//a[@id='v1']", opts);
    EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(PreparedQueryTest, ExposesEveryCompiledPlan) {
  auto& engine = PointerEngine();
  auto chain = engine.Compile("//listitem//keyword");
  ASSERT_TRUE(chain.ok());
  EXPECT_NE(chain->hybrid(), nullptr);
  EXPECT_TRUE(IsTdstaCompilable(chain->relaxed_path()));
  EXPECT_TRUE(chain->streamable());
  EXPECT_EQ(chain->ToString(), "/descendant::listitem/descendant::keyword");

  auto pred = engine.Compile("//listitem[.//keyword]");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->hybrid(), nullptr);
  EXPECT_FALSE(IsTdstaCompilable(pred->relaxed_path()));
  EXPECT_FALSE(pred->streamable());
}

TEST(PreparedQueryTest, MinimalTdstaJumpRunMatchesRun) {
  const Engine& engine = PointerEngine();
  auto query = engine.Compile("//listitem//keyword");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(IsTdstaCompilable(query->relaxed_path()));
  auto compiled =
      CompileToTdsta(query->relaxed_path(), query->alphabet_ptr().get());
  ASSERT_TRUE(compiled.ok());
  const Sta tdsta = MinimizeTopDown(*compiled);
  auto full = engine.Run(*query);
  ASSERT_TRUE(full.ok());
  JumpRunResult all = TopDownJumpRun(tdsta, engine.index());
  ASSERT_TRUE(all.accepting);
  EXPECT_EQ(all.selected, full->nodes);
}

TEST(PreparedQueryTest, SharedAcrossTwoThreads) {
  // Const-thread-safety smoke test (run under ASan/TSan-less CI, but the
  // sanitizer pass in scripts/check.sh executes it under ASan+UBSan): one
  // PreparedQuery, two threads, both backends, many runs each.
  auto query = PointerEngine().Compile("//listitem//keyword");
  ASSERT_TRUE(query.ok());
  auto expect_pointer = PointerEngine().Run(*query);
  ASSERT_TRUE(expect_pointer.ok());
  auto query_succinct = SuccinctEngine().Compile("//listitem//keyword");
  ASSERT_TRUE(query_succinct.ok());
  auto expect_succinct = SuccinctEngine().Run(*query_succinct);
  ASSERT_TRUE(expect_succinct.ok());

  auto worker = [](const Engine& engine, const PreparedQuery& q,
                   const std::vector<NodeId>& expect, bool* ok) {
    *ok = true;
    for (int i = 0; i < 16 && *ok; ++i) {
      auto run = engine.Run(q);
      *ok = *ok && run.ok() && run->nodes == expect;
      auto cursor = engine.OpenCursor(q);
      *ok = *ok && cursor.ok() &&
            cursor->Drain(7).size() == std::min<size_t>(7, expect.size());
    }
  };
  bool ok1 = false, ok2 = false, ok3 = false;
  std::thread t1(worker, std::cref(PointerEngine()), std::cref(*query),
                 std::cref(expect_pointer->nodes), &ok1);
  std::thread t2(worker, std::cref(PointerEngine()), std::cref(*query),
                 std::cref(expect_pointer->nodes), &ok2);
  std::thread t3(worker, std::cref(SuccinctEngine()),
                 std::cref(*query_succinct),
                 std::cref(expect_succinct->nodes), &ok3);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(ok3);
}

TEST(PreparedQueryTest, ConcurrentStringRunsHitTheLockedCache) {
  // The string overload's LRU is internally locked: warm it, then hammer it
  // from two threads (cache hits only — no concurrent interning).
  XMarkOptions opt;
  opt.scale = 0.002;
  Engine engine = Engine::FromDocument(GenerateXMark(opt));
  auto warm = engine.Run("//keyword");
  ASSERT_TRUE(warm.ok());
  auto worker = [&engine, &warm](bool* ok) {
    *ok = true;
    for (int i = 0; i < 16 && *ok; ++i) {
      auto run = engine.Run("//keyword");
      *ok = *ok && run.ok() && run->nodes == warm->nodes;
    }
  };
  bool ok1 = false, ok2 = false;
  std::thread t1(worker, &ok1);
  std::thread t2(worker, &ok2);
  t1.join();
  t2.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_GE(engine.Run("//keyword")->stats.query_cache_hits, 33);
}

}  // namespace
}  // namespace xpwqo
