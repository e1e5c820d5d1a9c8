// ResultCursor: a pull-based iterator over query results in document order —
// the serving-side result surface. Instead of materializing the complete
// node set, the cursor drives the evaluators lazily where the plan allows
// it (region streaming for predicate-free automaton runs, candidate
// streaming for hybrid plans, lazy mask extraction for the baseline), so a
// LIMIT-k consumer pays for the slice of the document up to the k-th match.
//
//   XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor,
//                          engine.OpenCursor("//listitem//keyword"));
//   for (int i = 0; i < 10; ++i) {
//     NodeId n = cursor.Next();
//     if (n == kNullNode) break;  // fewer than 10 matches
//     ...
//   }
//
// Every plan reaches the document through the engine's TreeIndex, which
// picks the backend; the pointer Document is read only by the baseline
// strategy and, when present, as the value filter's value source.
//
// A cursor owns its query's one ExecMonitor — the countdown over
// QueryOptions::control. Every stage of the query (automaton runs, hybrid
// candidates and ancestor walks, value-filter verification, returned
// nodes) charges that monitor and stops when it stops, so status() is the
// monitor's verdict and no stage keeps a countdown of its own.
//
// A cursor borrows the engine's document/index and (unless it was opened
// from a query string, which retains the cached compilation) the
// PreparedQuery — both must outlive it. Cursors are single-owner and
// move-only; concurrent use of one cursor is not supported, but any number
// of cursors over the same Engine/PreparedQuery may run in parallel.
#ifndef XPWQO_CORE_CURSOR_H_
#define XPWQO_CORE_CURSOR_H_

#include <memory>
#include <vector>

#include "core/prepared_query.h"
#include "core/query.h"
#include "tree/types.h"
#include "util/exec_control.h"
#include "util/status.h"

namespace xpwqo {

class Document;
class ResultCursor;
class TextStore;
class TreeIndex;

namespace internal {

/// Producer behind a ResultCursor. Implementations emit batches of node ids
/// in strictly increasing document order across batches.
class CursorImpl {
 public:
  virtual ~CursorImpl() = default;
  /// Appends the next batch (possibly empty). False when exhausted.
  virtual bool NextBatch(std::vector<NodeId>* out) = 0;
  /// Hint that results below `target` are no longer wanted; producers may
  /// skip work whose output would precede it. Targets must not decrease.
  virtual void SkipHint(NodeId /*target*/) {}
  /// True when batches are produced incrementally rather than drained from
  /// one completed run.
  virtual bool streaming() const = 0;
  /// Writes the producer-side counters (eval/hybrid/baseline stats).
  virtual void ReportStats(CursorStats* stats) const = 0;
};

/// The engine internals a cursor evaluates against (non-owning).
struct CursorContext {
  /// The document as every plan sees it (required); the index picks the
  /// backend.
  const TreeIndex* index = nullptr;
  /// Content layer for value predicates on document-less engines (streamed
  /// or image-backed); null on v1 images, where such queries fail with
  /// kFailedPrecondition.
  const TextStore* text = nullptr;
  /// Baseline oracle input and pointer value source only; null on
  /// streamed and image-backed engines.
  const Document* doc = nullptr;
};

/// Opens the one cursor for (query, options) over `ctx`, which both
/// Engine::OpenCursor and Engine::Run drain. It builds the query's
/// ExecMonitor over `options.control` first, then the producer that
/// charges it: a lazy mask scan for the baseline, a HybridStream for
/// kHybrid with a plan, an AstaRegionStream for a streamable query under a
/// jumping strategy, and otherwise one EvalAsta run here (a stop during
/// that run is returned as the error); value predicates add the filter
/// stage. `retained` optionally keeps a shared compilation alive for the
/// cursor's lifetime (string-opened cursors); `cache_hits` seeds
/// CursorStats::eval::query_cache_hits. Fails like Engine::Run (e.g.
/// baseline without a pointer Document).
StatusOr<ResultCursor> OpenCursor(
    const CursorContext& ctx, const PreparedQuery& query,
    const QueryOptions& options,
    std::shared_ptr<const PreparedQuery> retained = nullptr,
    int64_t cache_hits = 0);

}  // namespace internal

class ResultCursor {
 public:
  ResultCursor(ResultCursor&&) = default;
  ResultCursor& operator=(ResultCursor&&) = default;

  /// The next result in document order, or kNullNode when exhausted.
  NodeId Next();

  /// The next result >= target (document order), or kNullNode. Skipped
  /// results are gone — the cursor only moves forward. `target` may not
  /// precede already-returned results.
  NodeId SeekGe(NodeId target);

  /// Pulls up to `limit` further results (everything left by default).
  std::vector<NodeId> Drain();
  std::vector<NodeId> Drain(size_t limit);

  /// True once Next()/SeekGe() returned kNullNode.
  bool exhausted() const { return done_; }

  /// True when results are produced incrementally (LIMIT-k stops early
  /// instead of trimming a full run).
  bool streaming() const { return impl_->streaming(); }

  /// Work counters so far. Callable at any point; a LIMIT-k consumer reads
  /// them after the k-th Next() to see how little of the document was
  /// driven.
  CursorStats TakeStats() const;

  /// OK while results flow. When a QueryOptions::control limit trips —
  /// in any stage, or at the one charge per returned node —
  /// Next()/SeekGe() return kNullNode and this reports why
  /// (kDeadlineExceeded / kCancelled / kResourceExhausted): the
  /// distinction between "exhausted" and "stopped". Results already handed
  /// out remain valid; the tail was never produced.
  Status status() const { return monitor_->ToStatus(); }

 private:
  friend StatusOr<ResultCursor> internal::OpenCursor(
      const internal::CursorContext& ctx, const PreparedQuery& query,
      const QueryOptions& options,
      std::shared_ptr<const PreparedQuery> retained, int64_t cache_hits);

  ResultCursor(std::unique_ptr<ExecMonitor> monitor,
               std::unique_ptr<internal::CursorImpl> impl,
               std::shared_ptr<const PreparedQuery> retained,
               int64_t cache_hits);

  /// The query's one countdown. Heap-held because the producer keeps a
  /// pointer to it while the cursor moves; declared before impl_ so it is
  /// destroyed after the producer.
  std::unique_ptr<ExecMonitor> monitor_;
  std::unique_ptr<internal::CursorImpl> impl_;
  std::shared_ptr<const PreparedQuery> retained_;
  std::vector<NodeId> buffer_;
  size_t pos_ = 0;
  bool done_ = false;
  int64_t returned_ = 0;
  int64_t cache_hits_ = 0;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_CURSOR_H_
