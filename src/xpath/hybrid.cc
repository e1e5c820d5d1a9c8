#include "xpath/hybrid.h"

#include <algorithm>
#include <optional>

#include "xpath/compile.h"

namespace xpwqo {

bool IsHybridEvaluable(const Path& path) {
  if (path.steps.empty() || !path.absolute) return false;
  for (const Step& step : path.steps) {
    if (step.axis != Axis::kDescendant) return false;
    if (step.test.kind != NodeTestKind::kName) return false;
    if (!step.predicates.empty()) return false;
  }
  return true;
}

StatusOr<HybridPlan> HybridPlan::Make(const Path& path,
                                      const Alphabet* alphabet) {
  if (!IsHybridEvaluable(path)) {
    return Status::InvalidArgument(
        "hybrid evaluation requires a //-chain of name tests");
  }
  HybridPlan plan;
  for (const Step& step : path.steps) {
    plan.labels_.push_back(alphabet->Find(step.test.name));
  }
  plan.suffix_astas_.resize(path.steps.size());
  for (size_t p = 1; p + 1 < path.steps.size(); ++p) {
    XPWQO_ASSIGN_OR_RETURN(plan.suffix_astas_[p],
                           CompileSuffixToAsta(path, p + 1, alphabet));
  }
  return plan;
}

namespace {

/// Pivot choice: the step with the rarest label (earliest wins ties).
size_t PickPivot(const std::vector<LabelId>& labels, const TreeIndex& index) {
  size_t pivot = 0;
  for (size_t i = 1; i < labels.size(); ++i) {
    if (index.Count(labels[i]) < index.Count(labels[pivot])) pivot = i;
  }
  return pivot;
}

/// Upward prefix check: matches //l_{pivot-1}/.../l1 as an ancestor
/// subsequence, greedily from the candidate up (pure parent moves, like the
/// paper). Counts each step into `nodes_visited` and charges it to
/// `monitor`; false once the monitor stops.
bool PrefixMatches(const TreeIndex& index, const std::vector<LabelId>& labels,
                   size_t pivot, NodeId candidate, int64_t* nodes_visited,
                   ExecMonitor* monitor) {
  size_t need = pivot;  // labels[need-1] is the next one to find
  for (NodeId p = index.Parent(candidate); p != kNullNode && need > 0;
       p = index.Parent(p)) {
    ++*nodes_visited;
    if (monitor->Charge()) return false;
    if (index.Label(p) == labels[need - 1]) --need;
  }
  return need == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// HybridStream: the plan, evaluated candidate by candidate.

struct HybridStream::Impl {
  Impl(const HybridPlan& plan, const Asta& full, const TreeIndex& index,
       ExecMonitor* monitor)
      : plan_(&plan),
        index_(&index),
        monitor_(monitor != nullptr ? monitor : &own_monitor_) {
    opts_.monitor = monitor_;
    const std::vector<LabelId>& labels = plan.labels();
    const size_t k = labels.size();
    const size_t pivot = PickPivot(labels, index);
    stats_.pivot = static_cast<int>(pivot);
    stats_.pivot_count = index.Count(labels[pivot]);
    pivot_ = pivot;
    pivot_is_last_ = pivot + 1 == k;
    if (pivot == 0) {
      // First label rarest: start-anywhere degenerates to the regular
      // top-down run — stream it region by region (hybrid-evaluable paths
      // are predicate-free, so region emission is final).
      full_.emplace(full, index, opts_);
      return;
    }
    pivot_cursor_ = PostingList::Cursor(index.labels().Postings(labels[pivot]));
  }

  bool NextBatch(std::vector<NodeId>* out) {
    if (full_.has_value()) {
      const bool more = full_->NextRegion(out);
      stats_.nodes_visited = full_->stats().nodes_visited;
      return more;
    }
    const std::vector<LabelId>& labels = plan_->labels();
    for (;;) {
      NodeId c = pivot_cursor_.SeekGE(pos_);
      if (c == kNullNode) return false;
      pos_ = c + 1;
      // Subsumed by the last passed candidate's subtree evaluation.
      if (!pivot_is_last_ && c < cover_end_) continue;
      // All of this candidate's matches would precede the seek target.
      if (pivot_is_last_ ? c < skip_to_ : index_->XmlEnd(c) <= skip_to_) {
        continue;
      }
      ++stats_.nodes_visited;  // the candidate itself
      if (monitor_->Charge()) return false;
      if (!PrefixMatches(*index_, labels, pivot_, c, &stats_.nodes_visited,
                         monitor_)) {
        if (monitor_->stopped()) return false;
        continue;
      }
      if (pivot_is_last_) {
        out->push_back(c);
        return true;
      }
      cover_end_ = index_->XmlEnd(c);
      NodeId below = index_->FirstChild(c);
      if (below == kNullNode) continue;
      AstaEvalResult sub =
          EvalAstaAt(plan_->suffix_asta(pivot_), *index_, below, opts_);
      stats_.nodes_visited += sub.stats.nodes_visited;
      if (monitor_->stopped()) return false;  // partial batch: never emitted
      if (sub.nodes.empty()) continue;
      out->insert(out->end(), sub.nodes.begin(), sub.nodes.end());
      return true;
    }
  }

  void SkipTo(NodeId target) {
    if (full_.has_value()) {
      full_->SkipTo(target);
      return;
    }
    skip_to_ = std::max(skip_to_, target);
  }

  bool streaming() const {
    return full_.has_value() ? full_->streaming() : true;
  }

  const HybridPlan* plan_;
  const TreeIndex* index_;
  ExecMonitor own_monitor_;  // never stops: the caller passed none
  ExecMonitor* monitor_;     // charged for every node in stats_.nodes_visited
  AstaEvalOptions opts_;     // jumping + memoization + info propagation
  size_t pivot_ = 0;
  bool pivot_is_last_ = false;
  std::optional<AstaRegionStream> full_;  // pivot == 0 degeneration
  PostingList::Cursor pivot_cursor_;
  NodeId pos_ = 0;        // next posting lower bound
  NodeId cover_end_ = 0;  // XmlEnd of the last passed candidate
  NodeId skip_to_ = 0;
  HybridStats stats_;
};

HybridStream::HybridStream(const HybridPlan& plan, const Asta& full,
                           const TreeIndex& index, ExecMonitor* monitor)
    : impl_(std::make_unique<Impl>(plan, full, index, monitor)) {}

HybridStream::HybridStream(HybridStream&&) noexcept = default;
HybridStream& HybridStream::operator=(HybridStream&&) noexcept = default;
HybridStream::~HybridStream() = default;

bool HybridStream::NextBatch(std::vector<NodeId>* out) {
  return impl_->NextBatch(out);
}
void HybridStream::SkipTo(NodeId target) { impl_->SkipTo(target); }
bool HybridStream::streaming() const { return impl_->streaming(); }
const HybridStats& HybridStream::stats() const { return impl_->stats_; }

}  // namespace xpwqo
