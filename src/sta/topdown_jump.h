// Jumping top-down evaluation of minimal TDSTAs (Algorithm B.1): computes
// the partial run restricted to (a superset of) the top-down relevant nodes
// using the jumping primitives d_t / f_t / l_t / r_t of Definition 3.2.
//
// Theorem 3.1: on an accepting run the partial run agrees with the full run
// exactly on the relevant nodes; otherwise the empty mapping is returned.
//
// Like every evaluator, the run sees the document only through its
// TreeIndex: callers pass the index, and the index picks the backend.
//
// Deviations from the paper's pseudo-code, both conservative (they can only
// enlarge the visited set, never break correctness):
//  * jumping from a looping state q additionally requires q ∈ B — otherwise
//    a skipped all-loop subtree would hide a rejecting '#' leaf;
//  * jumping requires that q does not select on any *skipped* label (the
//    paper's ¬is_marking guard, made precise);
//  * the third case of relevant_nodes uses r_t (the paper's Algorithm B.1
//    pseudo-code reuses lt there, which we read as a typo).
#ifndef XPWQO_STA_TOPDOWN_JUMP_H_
#define XPWQO_STA_TOPDOWN_JUMP_H_

#include <vector>

#include "index/tree_index.h"
#include "sta/run.h"
#include "sta/sta.h"

namespace xpwqo {

/// Statistics of a jumping run.
struct JumpRunStats {
  int64_t nodes_visited = 0;
  int64_t jumps = 0;
};

/// Result of a jumping run: `states[n]` is the run state for visited nodes,
/// kNoState for skipped ones.
struct JumpRunResult {
  bool accepting = false;
  std::vector<StateId> states;
  std::vector<NodeId> visited;   // document order
  std::vector<NodeId> selected;  // document order
  JumpRunStats stats;
};

/// Runs Algorithm B.1 over the document behind `index` (the index picks
/// the backend). `sta` must be top-down deterministic and complete
/// (minimality is what makes the visited set tight; correctness holds for
/// any deterministic complete automaton).
JumpRunResult TopDownJumpRun(const Sta& sta, const TreeIndex& index);

}  // namespace xpwqo

#endif  // XPWQO_STA_TOPDOWN_JUMP_H_
