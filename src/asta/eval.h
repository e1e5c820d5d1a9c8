// ASTA evaluation (Algorithm 4.1) with the paper's optimizations as
// independent switches, matching the four series of Figure 4:
//   Naive Eval.   {jumping = false, memoize = false}
//   Jumping Eval. {jumping = true,  memoize = false}
//   Memo. Eval.   {jumping = false, memoize = true}
//   Opt. Eval.    {jumping = true,  memoize = true}
// plus information propagation (§4.4) as a further toggle (on by default;
// bench/ablation_infoprop measures it).
//
// The evaluator is a bottom-up pass with top-down pre-processing (§4.3): the
// recursion carries the determinized state-set r, restricting which states
// the bottom-up result must report. It runs on an explicit stack — sibling
// chains become right-spine recursion under the fcns encoding, so the call
// stack would otherwise be O(max fan-out).
//
// The document is the TreeIndex: callers pass the index and the index picks
// the backend (pointer Document or SuccinctTree); the evaluator runs
// templated on that backend's static view. The index is always required —
// AstaEvalOptions::jumping alone decides whether its jump functions are used.
#ifndef XPWQO_ASTA_EVAL_H_
#define XPWQO_ASTA_EVAL_H_

#include <memory>
#include <vector>

#include "asta/asta.h"
#include "asta/result_set.h"
#include "asta/tda.h"
#include "index/tree_index.h"
#include "util/exec_control.h"

namespace xpwqo {

struct AstaEvalOptions {
  /// Jump to (the approximation of) relevant nodes via the label index.
  bool jumping = true;
  /// Memoize transition lookups and formula evaluations (§4.4).
  bool memoize = true;
  /// Evaluate formulas after the first child to prune the second child's
  /// state set and enforce one-witness predicate semantics (§4.4).
  bool info_propagation = true;
  /// The query's countdown (non-owning; must outlive the evaluation), or
  /// null for a private monitor that never stops. Every visited node is
  /// charged to it; once it stops, the run abandons its drive and reports
  /// no nodes, and the caller reads the reason from the monitor.
  ExecMonitor* monitor = nullptr;
};

struct AstaEvalStats {
  /// Nodes on which transitions were evaluated (Figure 3 lines (2)/(3)).
  int64_t nodes_visited = 0;
  /// Jumping moves performed (d_t / f_t / l_t / r_t uses).
  int64_t jumps = 0;
  /// Distinct entries in the (set,label) step table and the formula
  /// evaluation table; their sum is the count of nodes that paid the |Q|
  /// factor (Figure 3 line (4)).
  int64_t memo_step_entries = 0;
  int64_t memo_eval_entries = 0;
  int64_t memo_hits = 0;
  /// Distinct determinized state sets seen (size of the tda on-the-fly
  /// construction).
  int64_t interned_sets = 0;
  /// Hits served by the engine's compiled-query LRU when the run came in
  /// through the string overload (cumulative per engine; the evaluators
  /// themselves leave this 0).
  int64_t query_cache_hits = 0;
};

struct AstaEvalResult {
  /// Whether some top state accepted at the root (t ∈ L(A)).
  bool accepted = false;
  /// Selected nodes, document order, duplicate-free.
  std::vector<NodeId> nodes;
  AstaEvalStats stats;
};

/// Evaluates `asta` (finalized) over the document behind `index`.
AstaEvalResult EvalAsta(const Asta& asta, const TreeIndex& index,
                        const AstaEvalOptions& options = {});

/// Evaluates over the *binary* subtree rooted at `start` (i.e. the preorder
/// range [start, BinaryEnd(start))) with the automaton's top state-set. The
/// hybrid strategy uses this to run a suffix query below a pivot node:
/// passing the pivot's first child evaluates over its strict XML
/// descendants.
AstaEvalResult EvalAstaAt(const Asta& asta, const TreeIndex& index,
                          NodeId start, const AstaEvalOptions& options = {});

/// Incremental, document-order evaluation: when the automaton's top
/// determinized set jumps (LoopKind::kBoth with a finite essential set and a
/// non-essential root label), the document decomposes into the disjoint
/// binary subtrees of the topmost essential nodes, enumerated in document
/// order. Each NextRegion() call evaluates exactly one such region and
/// appends its matches (ascending, all beyond earlier regions), so a LIMIT-k
/// consumer stops jumping after the region containing the k-th match instead
/// of sweeping the document. One evaluator instance persists across regions,
/// so memo tables and interned state sets are shared exactly as in a
/// monolithic run.
///
/// Soundness caveat: a region's marks are emitted as final, which requires
/// an automaton where every created mark survives to an accepted top state.
/// That holds for predicate-free XPath compilations (selection queries never
/// reject a tree and their formulas are positive) — the condition
/// PreparedQuery::streamable() checks. For other automata, when the top set
/// cannot jump, or with options.jumping off, the stream degenerates to a
/// single region that is the plain full run (streaming() returns false),
/// which is always correct.
class AstaRegionStream {
 public:
  /// `asta` and `index` must outlive the stream.
  AstaRegionStream(const Asta& asta, const TreeIndex& index,
                   const AstaEvalOptions& options = {});
  AstaRegionStream(AstaRegionStream&&) noexcept;
  AstaRegionStream& operator=(AstaRegionStream&&) noexcept;
  ~AstaRegionStream();

  /// True when the document decomposes into more than one lazily-enumerated
  /// region; false when NextRegion runs the whole document at once.
  bool streaming() const;

  /// Appends the next region's matches to `out` (possibly none — a region
  /// may prove empty). Returns false when the enumeration is exhausted or
  /// the options' monitor stopped (a partial region is never emitted).
  bool NextRegion(std::vector<NodeId>* out);

  /// Regions ending at or before `target` are skipped without evaluation
  /// (their matches all precede `target`). Lower bounds must not decrease.
  void SkipTo(NodeId target);

  /// Cumulative work so far (evaluator counters plus enumeration jumps).
  const AstaEvalStats& stats() const;

  struct Impl;  // backend-templated implementations live in eval.cc

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpwqo

#endif  // XPWQO_ASTA_EVAL_H_
