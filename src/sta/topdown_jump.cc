#include "sta/topdown_jump.h"

#include <algorithm>

#include "sta/relevance.h"
#include "util/check.h"

namespace xpwqo {
namespace {

/// Per-state jump classification, precomputed once per automaton.
struct StateJumpInfo {
  enum Kind {
    kNone,         // visit every node entered in this state
    kDescendants,  // loop (q,q): jump to topmost essential nodes (d_t/f_t)
    kLeftPath,     // loop (q,q>): jump along the left-most path (l_t)
    kRightPath,    // loop (q>,q): jump along the right-most path (r_t)
  };
  Kind kind = kNone;
  LabelSet essential = LabelSet::All();
};

std::vector<StateJumpInfo> ClassifyStates(const Sta& sta) {
  const StateId top = FindTopDownUniversal(sta);
  std::vector<StateJumpInfo> infos(sta.num_states());
  for (StateId q = 0; q < sta.num_states(); ++q) {
    StateJumpInfo& info = infos[q];
    // Skipping silently accepts the '#' leaves of the skipped region, so the
    // looping state must be a bottom state.
    if (!sta.IsBottom(q)) continue;
    LabelSet loop_both = LabelSet::None();
    LabelSet loop_left = LabelSet::None();
    LabelSet loop_right = LabelSet::None();
    for (const StaTransition& t : sta.transitions()) {
      if (t.from != q) continue;
      if (t.to1 == q && t.to2 == q) {
        loop_both = loop_both.Union(t.labels);
      } else if (t.to1 == q && t.to2 == top && top != kNoState) {
        loop_left = loop_left.Union(t.labels);
      } else if (t.to2 == q && t.to1 == top && top != kNoState) {
        loop_right = loop_right.Union(t.labels);
      }
    }
    auto try_kind = [&](const LabelSet& loop_in, StateJumpInfo::Kind kind) {
      // Selection must be witnessed, so selecting labels are essential even
      // where the automaton loops (e.g. q1,{b} => (q1,q1) in Example 2.1).
      LabelSet loop = loop_in.Minus(sta.SelectingLabels(q));
      if (loop.IsEmpty()) return false;
      LabelSet essential = loop.Complement();
      // Only finite essential sets can be enumerated through the label
      // index.
      if (!essential.IsFinite()) return false;
      info.kind = kind;
      info.essential = essential;
      return true;
    };
    // Priority mirrors Algorithm B.1's case order.
    if (try_kind(loop_both, StateJumpInfo::kDescendants)) continue;
    if (try_kind(loop_left, StateJumpInfo::kLeftPath)) continue;
    if (try_kind(loop_right, StateJumpInfo::kRightPath)) continue;
  }
  return infos;
}

template <typename TreeView>
class JumpRunner {
 public:
  JumpRunner(const Sta& sta, TreeView doc, const TreeIndex& index)
      : sta_(sta),
        doc_(doc),
        index_(index),
        infos_(ClassifyStates(sta)),
        sink_(FindTopDownSink(sta)) {}

  JumpRunResult Run() {
    XPWQO_CHECK(sta_.tops().size() == 1);
    JumpRunResult out;
    out.states.assign(doc_.num_nodes(), kNoState);
    result_ = &out;
    failed_ = false;
    // relevant_nodes at the root, then depth-first; the explicit stack holds
    // pending (node, state) visits in reverse document order, so visits pop
    // in document order.
    EnterChild(doc_.root(), sta_.tops()[0]);
    while (!stack_.empty() && !failed_) {
      auto [n, q] = stack_.back();
      stack_.pop_back();
      Visit(n, q);
    }
    if (failed_) {
      out = JumpRunResult{};
      out.states.assign(doc_.num_nodes(), kNoState);
      return out;
    }
    out.accepting = true;
    std::sort(out.visited.begin(), out.visited.end());
    std::sort(out.selected.begin(), out.selected.end());
    return out;
  }

 private:
  /// relevant_nodes(t, c, q): schedules the top-most relevant visits for a
  /// child subtree rooted at `c` entered in state q.
  void EnterChild(NodeId c, StateId q) {
    const StateJumpInfo& info = infos_[q];
    switch (info.kind) {
      case StateJumpInfo::kNone:
        Push(c, q);
        return;
      case StateJumpInfo::kDescendants: {
        if (info.essential.Contains(doc_.label(c))) {
          Push(c, q);
          return;
        }
        ++result_->stats.jumps;
        // Push the topmost essential nodes, then reverse the pushed range in
        // place so the stack pops them in document order. The scope boundary
        // and the merged posting cursor are hoisted out of the enumeration
        // loop: f_t steps pay amortized movement over the compressed lists
        // (block-skipping seeks), not |L| fresh front-searches.
        const NodeId scope_end = doc_.BinaryEnd(c);
        LabelIndex::SetCursor cursor(index_.labels(), info.essential);
        const size_t mark = stack_.size();
        for (NodeId m = cursor.First(c + 1, scope_end); m != kNullNode;
             m = cursor.First(doc_.BinaryEnd(m), scope_end)) {
          Push(m, q);
        }
        std::reverse(stack_.begin() + mark, stack_.end());
        return;
      }
      case StateJumpInfo::kLeftPath: {
        if (info.essential.Contains(doc_.label(c))) {
          Push(c, q);
          return;
        }
        ++result_->stats.jumps;
        NodeId m = index_.LeftPathFirst(c, info.essential);
        if (m != kNullNode) Push(m, q);
        return;
      }
      case StateJumpInfo::kRightPath: {
        if (info.essential.Contains(doc_.label(c))) {
          Push(c, q);
          return;
        }
        ++result_->stats.jumps;
        NodeId m = index_.RightPathFirst(c, info.essential);
        if (m != kNullNode) Push(m, q);
        return;
      }
    }
  }

  void Push(NodeId n, StateId q) { stack_.emplace_back(n, q); }

  /// td_jump_rec body for one node.
  void Visit(NodeId n, StateId q) {
    result_->states[n] = q;
    result_->visited.push_back(n);
    ++result_->stats.nodes_visited;
    if (sta_.Selects(q, doc_.label(n))) result_->selected.push_back(n);
    auto [q1, q2] = sta_.Destination(q, doc_.label(n));
    if (q1 == sink_ || q2 == sink_) {
      failed_ = true;
      return;
    }
    NodeId left = doc_.Left(n);
    NodeId right = doc_.Right(n);
    // Push right first so the left subtree is processed first.
    if (right == kNullNode) {
      if (!sta_.IsBottom(q2)) failed_ = true;
    } else {
      EnterChild(right, q2);
    }
    if (failed_) return;
    if (left == kNullNode) {
      if (!sta_.IsBottom(q1)) failed_ = true;
    } else {
      EnterChild(left, q1);
    }
  }

  const Sta& sta_;
  const TreeView doc_;
  const TreeIndex& index_;
  std::vector<StateJumpInfo> infos_;
  StateId sink_;
  std::vector<std::pair<NodeId, StateId>> stack_;
  JumpRunResult* result_ = nullptr;
  bool failed_ = false;
};

}  // namespace

JumpRunResult TopDownJumpRun(const Sta& sta, const TreeIndex& index) {
  return VisitTreeView(index, [&](auto view) {
    return JumpRunner<decltype(view)>(sta, view, index).Run();
  });
}

}  // namespace xpwqo
