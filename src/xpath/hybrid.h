// Hybrid ("start anywhere") evaluation, §4.4: for a descendant chain
// //l1//l2//...//lk, pick the label with the lowest global count (O(1) via
// the label index), start at its occurrences, check the prefix //l1..//l_{p-1}
// upward with parent moves, and evaluate the suffix //l_{p+1}..//lk downward
// with the jumping automaton. Effective exactly when one label is rare
// (configurations A/B of Figure 5); when the pivot is the first label the
// strategy degenerates to the regular top-down+bottom-up run.
//
// Like the paper's engine, the upward part uses parent moves (our index has
// no labeled-ancestor jumps either, §5 "Implementation").
//
// The plan runs only as a HybridStream, which sees the document only
// through its TreeIndex: callers pass the index, and the index picks the
// backend. The candidate loop calls the index's navigation directly; the
// suffix runs go through EvalAstaAt.
#ifndef XPWQO_XPATH_HYBRID_H_
#define XPWQO_XPATH_HYBRID_H_

#include <memory>
#include <vector>

#include "asta/eval.h"
#include "index/tree_index.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace xpwqo {

/// True if the hybrid strategy applies: an absolute descendant chain of
/// name tests without predicates, length >= 1.
bool IsHybridEvaluable(const Path& path);

struct HybridStats {
  /// Which step was chosen as the pivot (0-based).
  int pivot = 0;
  int32_t pivot_count = 0;
  /// Candidates + ancestor-walk nodes + suffix-evaluation visits — the
  /// hybrid counterpart of Figure 5 line (2).
  int64_t nodes_visited = 0;
};

/// A reusable hybrid plan (pivot choice is per-document). The whole-chain
/// automaton is not part of the plan: the pivot-0 degeneration runs the
/// caller's, which PreparedQuery compiles anyway.
class HybridPlan {
 public:
  /// Builds a plan. Fails if the path shape is not hybrid-evaluable.
  /// Labels the alphabet has never seen stay kNoLabel, which the label
  /// index counts as empty, so such a plan selects nothing.
  static StatusOr<HybridPlan> Make(const Path& path,
                                   const Alphabet* alphabet);

  /// The chain's labels, one per step (read-only plan introspection; the
  /// stream drives the pivot enumeration through these).
  const std::vector<LabelId>& labels() const { return labels_; }
  /// The suffix automaton below pivot `p`. Requires 0 < p < labels().size()
  /// - 1 (the last step has no suffix; pivot 0 runs the whole chain).
  const Asta& suffix_asta(size_t p) const { return suffix_astas_[p]; }

 private:
  HybridPlan() = default;

  std::vector<LabelId> labels_;  // one per step
  /// Suffix automata: suffix_astas_[p] covers steps p+1.. (empty Asta when
  /// p is the last step). Built lazily-eagerly for every possible pivot so
  /// a plan works across documents with different counts.
  std::vector<Asta> suffix_astas_;
};

/// Pull-based drive of a HybridPlan: pivot occurrences stream from the
/// compressed postings in document order; each passed candidate's prefix
/// check and suffix evaluation happen on demand, so a LIMIT-k consumer pays
/// for the candidates up to the k-th match only. Batches arrive in document
/// order, duplicate-free: a candidate nested inside an already-passed
/// pivot's subtree is skipped outright — its prefix necessarily matches
/// through the outer candidate's ancestors and its suffix matches are a
/// subset of the outer subtree evaluation (for a final-step pivot the nested
/// candidate is itself a match and streams on its own).
///
/// When the pivot degenerates to step 0 the stream delegates to an
/// AstaRegionStream over the full-chain automaton `full`, compiled from the
/// same path as `plan` (PreparedQuery::asta()).
class HybridStream {
 public:
  /// `monitor` is the query's countdown (null: a private one that never
  /// stops). Every node counted in stats().nodes_visited — candidate,
  /// ancestor-walk step, suffix visit — is charged to it, so one deadline,
  /// cancel flag and budget govern the whole pull. Once it stops,
  /// NextBatch() returns false and the partial batch is never emitted; the
  /// caller reads the reason from the monitor. `monitor`, `plan`, `full`
  /// and `index` must outlive the stream.
  HybridStream(const HybridPlan& plan, const Asta& full,
               const TreeIndex& index, ExecMonitor* monitor = nullptr);
  HybridStream(HybridStream&&) noexcept;
  HybridStream& operator=(HybridStream&&) noexcept;
  ~HybridStream();

  /// Appends the next batch of matches (one candidate's worth; possibly
  /// empty when the candidate fails). Returns false when exhausted.
  bool NextBatch(std::vector<NodeId>* out);

  /// Candidates whose matches all precede `target` are skipped without the
  /// ancestor walk or suffix evaluation. Lower bounds must not decrease.
  void SkipTo(NodeId target);

  /// True when matches are produced incrementally (always, except a
  /// pivot-0 degeneration whose region stream cannot decompose).
  bool streaming() const;

  const HybridStats& stats() const;

  struct Impl;  // defined in hybrid.cc

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpwqo

#endif  // XPWQO_XPATH_HYBRID_H_
