#include "core/value_filter.h"

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/text_store.h"
#include "index/tree_index.h"
#include "tree/document.h"

namespace xpwqo {
namespace internal {
namespace {

/// What a label names in the XPath data model. Derived from the label
/// spelling ("@name" attributes, "#text" text), which is how both backends
/// encode node kinds — the succinct tree stores no kind array.
enum class NodeClass : uint8_t { kElement, kAttribute, kText };

/// Backward verification of one candidate against the full original path.
/// Semantics mirror baseline/nodeset_eval.cc exactly (same virtual-root
/// context for the first step, same principal-type rule, same treatment of
/// never-interned name tests); the two must agree for the parity suite to
/// hold. Work is proportional to the candidate's ancestry and the
/// predicates' subtree scans, every node of it charged to the monitor, so
/// a deadline or budget stops verification mid-candidate. Navigation goes
/// through the TreeIndex (whichever backend it wraps); only value reads
/// choose between the pointer Document and the TextStore.
class PathVerifier {
 public:
  PathVerifier(const Path& path, const CursorContext& ctx,
               const Alphabet& alphabet, ExecMonitor* monitor)
      : path_(path),
        index_(*ctx.index),
        doc_(ctx.doc),
        text_(ctx.text),
        monitor_(monitor) {
    const int num_labels = alphabet.size();
    class_of_.reserve(static_cast<size_t>(num_labels));
    for (LabelId l = 0; l < num_labels; ++l) {
      const std::string& name = alphabet.Name(l);
      NodeClass c = NodeClass::kElement;
      if (!name.empty() && name[0] == '@') c = NodeClass::kAttribute;
      if (!name.empty() && name[0] == '#') c = NodeClass::kText;
      class_of_.push_back(c);
    }
    // Resolve every name test once up front: Alphabet lookups take a shared
    // lock, far too hot for the per-node inner loops. Find, not Intern — a
    // name the alphabet has never seen labels no node, so its test simply
    // never matches (the baseline applies the same rule).
    ResolveNames(path_, alphabet);
  }

  /// True iff the full path selects `n` from the document root. False once
  /// the monitor stopped (the cursor discards the tail anyway).
  bool Selects(NodeId n) { return CanEnd(path_.steps.size() - 1, n); }

 private:
  void ResolveNames(const Path& path, const Alphabet& alphabet) {
    for (const Step& s : path.steps) {
      if (s.test.kind == NodeTestKind::kName) {
        name_ids_.emplace(&s, alphabet.Find(s.test.name));
      }
      for (const auto& p : s.predicates) ResolveNames(*p, alphabet);
    }
  }
  void ResolveNames(const PredExpr& pred, const Alphabet& alphabet) {
    if (pred.lhs != nullptr) ResolveNames(*pred.lhs, alphabet);
    if (pred.rhs != nullptr) ResolveNames(*pred.rhs, alphabet);
    ResolveNames(pred.path, alphabet);
  }

  std::string_view Value(NodeId n) const {
    if (doc_ != nullptr) return doc_->text(n);
    return text_->has_value(n) ? text_->Value(n) : std::string_view();
  }
  NodeClass ClassOf(NodeId n) const {
    const LabelId l = index_.Label(n);
    return static_cast<size_t>(l) < class_of_.size() ? class_of_[l]
                                                     : NodeClass::kElement;
  }

  /// Node test + principal type + the step's own predicates at `n`.
  bool MatchesStep(const Step& step, NodeId n) {
    const NodeClass c = ClassOf(n);
    // Attribute nodes are reachable only through the attribute axis.
    if ((step.axis == Axis::kAttribute) != (c == NodeClass::kAttribute)) {
      return false;
    }
    switch (step.test.kind) {
      case NodeTestKind::kName: {
        const LabelId id = name_ids_.at(&step);
        if (id == kNoLabel || index_.Label(n) != id) return false;
        break;
      }
      case NodeTestKind::kStar:
        if (c != NodeClass::kElement) return false;
        break;
      case NodeTestKind::kNode:
        break;
      case NodeTestKind::kText:
        if (c != NodeClass::kText) return false;
        break;
    }
    for (const auto& pred : step.predicates) {
      if (!EvalPred(*pred, n)) return false;
    }
    return true;
  }

  bool EvalPred(const PredExpr& pred, NodeId n) {
    if (monitor_->stopped()) return false;
    switch (pred.kind) {
      case PredExpr::Kind::kAnd:
        return EvalPred(*pred.lhs, n) && EvalPred(*pred.rhs, n);
      case PredExpr::Kind::kOr:
        return EvalPred(*pred.lhs, n) || EvalPred(*pred.rhs, n);
      case PredExpr::Kind::kNot:
        return !EvalPred(*pred.lhs, n) && !monitor_->stopped();
      case PredExpr::Kind::kPath:
        return ExistsPath(pred.path, 0, n, nullptr);
      case PredExpr::Kind::kValueCmp:
        return ExistsPath(pred.path, 0, n, &pred);
    }
    return false;
  }

  bool CompareValue(const PredExpr& cmp, NodeId m) {
    const std::string_view v = Value(m);
    return cmp.op == ValueCmpOp::kEquals
               ? v == cmp.literal
               : v.find(cmp.literal) != std::string_view::npos;
  }

  /// Forward existential: does `path` (steps i..) match from `context`?
  /// With `cmp` set, the final node must additionally pass the value
  /// comparison (this is how kValueCmp evaluates: the comparison path is
  /// the predicate path with a compare on its last, value-bearing step).
  bool ExistsPath(const Path& path, size_t i, NodeId context,
                  const PredExpr* cmp) {
    const Step& step = path.steps[i];
    const bool last = i + 1 == path.steps.size();
    // -1 stop everything, 0 keep scanning, 1 witness found.
    auto visit = [&](NodeId m) -> int {
      if (monitor_->Charge()) return -1;
      if (!MatchesStep(step, m)) return 0;
      if (!last) {
        if (ExistsPath(path, i + 1, m, cmp)) return 1;
        return monitor_->stopped() ? -1 : 0;
      }
      if (cmp == nullptr) return 1;
      return CompareValue(*cmp, m) ? 1 : 0;
    };
    switch (step.axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        for (NodeId c = index_.FirstChild(context); c != kNullNode;
             c = index_.NextSibling(c)) {
          const int r = visit(c);
          if (r != 0) return r > 0;
        }
        return false;
      case Axis::kDescendant: {
        // Descendants of context = the preorder range (context, XmlEnd).
        const NodeId end = index_.XmlEnd(context);
        for (NodeId m = context + 1; m < end; ++m) {
          const int r = visit(m);
          if (r != 0) return r > 0;
        }
        return false;
      }
      case Axis::kFollowingSibling:
        for (NodeId s = index_.NextSibling(context); s != kNullNode;
             s = index_.NextSibling(s)) {
          const int r = visit(s);
          if (r != 0) return r > 0;
        }
        return false;
    }
    return false;
  }

  /// Backward reachability: can steps 0..i land on `n`, with step 0 started
  /// from the virtual document node (whose children = {root}, and whose
  /// descendant axis ranges over everything — exactly EvalFromRoot)?
  bool CanEnd(size_t i, NodeId n) {
    if (monitor_->Charge()) return false;
    const Step& step = path_.steps[i];
    if (!MatchesStep(step, n)) return false;
    if (i == 0) return step.axis == Axis::kDescendant || n == 0;
    switch (step.axis) {
      case Axis::kChild:
      case Axis::kAttribute: {
        const NodeId p = index_.Parent(n);
        return p != kNullNode && CanEnd(i - 1, p);
      }
      case Axis::kDescendant:
        for (NodeId p = index_.Parent(n); p != kNullNode;
             p = index_.Parent(p)) {
          if (CanEnd(i - 1, p)) return true;
          if (monitor_->stopped()) return false;
        }
        return false;
      case Axis::kFollowingSibling: {
        const NodeId p = index_.Parent(n);
        if (p == kNullNode) return false;
        for (NodeId s = index_.FirstChild(p); s != kNullNode && s != n;
             s = index_.NextSibling(s)) {
          if (CanEnd(i - 1, s)) return true;
          if (monitor_->stopped()) return false;
        }
        return false;
      }
    }
    return false;
  }

  const Path& path_;
  const TreeIndex& index_;
  const Document* doc_;
  const TextStore* text_;  // the value source when doc_ is null
  ExecMonitor* monitor_;
  std::vector<NodeClass> class_of_;  // indexed by LabelId
  /// Pre-resolved kName tests, keyed by step identity (the path AST is
  /// immutable and outlives the verifier).
  std::unordered_map<const Step*, LabelId> name_ids_;
};

/// Decorator over the relaxed-plan producer: one inner batch in, its
/// verified survivors out. A true return with an empty batch is legal
/// (ResultCursor keeps pulling), so a batch of all-rejected candidates
/// costs no extra buffering. SkipHint and document order pass through —
/// filtering preserves both.
class FilterImpl final : public CursorImpl {
 public:
  FilterImpl(std::unique_ptr<CursorImpl> inner, const Path& path,
             const CursorContext& ctx, const Alphabet& alphabet,
             ExecMonitor* monitor)
      : inner_(std::move(inner)),
        monitor_(monitor),
        verifier_(path, ctx, alphabet, monitor) {}

  bool NextBatch(std::vector<NodeId>* out) override {
    if (monitor_->stopped()) return false;
    raw_.clear();
    if (!inner_->NextBatch(&raw_)) return false;
    for (const NodeId n : raw_) {
      ++checked_;
      if (verifier_.Selects(n)) {
        out->push_back(n);
      } else {
        ++rejected_;
      }
      if (monitor_->stopped()) break;
    }
    return true;
  }
  void SkipHint(NodeId target) override { inner_->SkipHint(target); }
  bool streaming() const override { return inner_->streaming(); }
  void ReportStats(CursorStats* stats) const override {
    inner_->ReportStats(stats);
    stats->filter_checked = checked_;
    stats->filter_rejected = rejected_;
  }

 private:
  std::unique_ptr<CursorImpl> inner_;
  ExecMonitor* monitor_;
  PathVerifier verifier_;
  std::vector<NodeId> raw_;
  int64_t checked_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace

std::unique_ptr<CursorImpl> WrapWithValueFilter(
    std::unique_ptr<CursorImpl> inner, const Path& path,
    const CursorContext& ctx, const Alphabet& alphabet, ExecMonitor* monitor) {
  return std::unique_ptr<CursorImpl>(
      new FilterImpl(std::move(inner), path, ctx, alphabet, monitor));
}

}  // namespace internal
}  // namespace xpwqo
