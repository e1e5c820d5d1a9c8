// Query execution types shared by the serving surface (Engine, ResultCursor,
// Collection): the evaluation strategies of Figure 4, per-run options, and
// the result/statistics structs every execution path reports into.
#ifndef XPWQO_CORE_QUERY_H_
#define XPWQO_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "asta/eval.h"
#include "baseline/nodeset_eval.h"
#include "tree/types.h"
#include "xpath/hybrid.h"

namespace xpwqo {

/// How to evaluate a query. The first four correspond to Figure 4's series.
enum class EvalStrategy {
  kNaive,      // Algorithm 4.1 as written: no jumping, no memoization
  kJumping,    // relevant-node jumping only
  kMemoized,   // memoization only
  kOptimized,  // jumping + memoization + information propagation (default)
  kHybrid,     // start-anywhere (falls back to kOptimized when inapplicable)
  kBaseline,   // step-wise node-set evaluation (the MonetDB stand-in)
};

const char* EvalStrategyName(EvalStrategy strategy);

struct QueryOptions {
  EvalStrategy strategy = EvalStrategy::kOptimized;
  /// Information propagation (only meaningful for the automaton
  /// strategies; Figure 4's four series keep it off except kOptimized).
  bool info_propagation = true;
  /// Deadline / cancellation / visited-node budget for this run, or null
  /// for ungoverned evaluation (the default). Must outlive the run (and
  /// the cursor, for OpenCursor). The query runs under one countdown over
  /// it, owned by its cursor: the automaton and hybrid plans, the value
  /// filter and every returned node charge that countdown, so a budget
  /// counts all of them together (the baseline's set-at-a-time passes are
  /// not charged; its returned nodes are). Run returns a stop as its
  /// error Status; a cursor stops and reports it through
  /// ResultCursor::status().
  const ExecControl* control = nullptr;
};

struct QueryResult {
  /// Selected nodes in document order, duplicate-free.
  std::vector<NodeId> nodes;
  /// Automaton statistics (zero for kBaseline).
  AstaEvalStats stats;
  /// Hybrid statistics (only set when the hybrid strategy actually ran).
  HybridStats hybrid;
  bool used_hybrid = false;
};

/// Work accounting of one cursor, reported by ResultCursor::TakeStats().
/// For streaming cursors the counters cover only the portion of the
/// document actually driven — the whole point of LIMIT-k evaluation.
struct CursorStats {
  AstaEvalStats eval;       // automaton strategies (zero for kBaseline)
  HybridStats hybrid;       // only set when the hybrid strategy ran
  BaselineStats baseline;   // only set for kBaseline
  bool used_hybrid = false;
  /// True when results were produced incrementally (region/pivot streaming
  /// or lazy mask extraction) rather than drained from one full run.
  bool streaming = false;
  /// Nodes handed out by Next()/SeekGe() so far.
  int64_t returned = 0;
  /// Value-predicate post-filter counters (zero when the query has none or
  /// ran on the baseline, which evaluates value predicates natively):
  /// relaxed-plan candidates verified, and how many the full path rejected.
  int64_t filter_checked = 0;
  int64_t filter_rejected = 0;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_QUERY_H_
