#include "xpath/compile.h"

#include "util/check.h"

namespace xpwqo {
namespace {

class Compiler {
 public:
  Compiler(const Path& path, size_t from, const Alphabet* alphabet)
      : path_(path), from_(from), alphabet_(alphabet) {}

  StatusOr<Asta> Compile() {
    if (path_.steps.empty() || from_ >= path_.steps.size()) {
      return Status::InvalidArgument("empty path");
    }
    // Build right to left so each step knows its continuation state.
    StateId next = kNoState;
    for (size_t i = path_.steps.size(); i-- > from_;) {
      XPWQO_ASSIGN_OR_RETURN(
          next, CompileMainStep(path_.steps[i], next,
                                i + 1 < path_.steps.size()
                                    ? path_.steps[i + 1].axis
                                    : Axis::kChild,
                                /*is_first=*/i == from_));
    }
    asta_.AddTop(next);
    asta_.Finalize();
    return std::move(asta_);
  }

 private:
  /// The set of labels a node test matches. Attribute nodes ("@x" labels)
  /// are never children or descendants in the XPath data model, so '*' and
  /// node() exclude them; they are only reachable through the attribute
  /// axis (whose name tests carry the '@' prefix).
  LabelSet TestToLabelSet(const NodeTest& test) {
    switch (test.kind) {
      case NodeTestKind::kName:
      case NodeTestKind::kText: {
        const LabelId id = alphabet_->Find(
            test.kind == NodeTestKind::kText ? std::string_view("#text")
                                             : std::string_view(test.name));
        return id == kNoLabel ? LabelSet::None() : LabelSet::Of({id});
      }
      case NodeTestKind::kStar:
      case NodeTestKind::kNode: {
        bool exclude_text = test.kind == NodeTestKind::kStar;
        std::vector<LabelId> excluded;
        for (LabelId l = 0; l < alphabet_->size(); ++l) {
          char c0 = alphabet_->Name(l)[0];
          if (c0 == '@' || (exclude_text && c0 == '#')) excluded.push_back(l);
        }
        return LabelSet::AllExcept(std::move(excluded));
      }
    }
    return LabelSet::None();
  }

  /// Entry move into a step's scan state: where does the scan start,
  /// relative to the previous context node?
  int EntryChild(Axis axis) {
    switch (axis) {
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kAttribute:
        return 1;  // first child: children / strict descendants / attributes
      case Axis::kFollowingSibling:
        return 2;  // next sibling
    }
    return 1;
  }

  /// The recursion ("keep scanning") formula for a step's state.
  FormulaId LoopFormula(Axis axis, StateId q) {
    FormulaArena& f = asta_.formulas();
    switch (axis) {
      case Axis::kDescendant:
        return f.Or(f.Down(1, q), f.Down(2, q));
      case Axis::kChild:
      case Axis::kAttribute:
      case Axis::kFollowingSibling:
        return f.Down(2, q);  // along the sibling chain
    }
    return f.False();
  }

  StatusOr<StateId> CompileMainStep(const Step& step, StateId next,
                                    Axis next_axis, bool is_first) {
    FormulaArena& f = asta_.formulas();
    StateId q = asta_.AddState();
    XPWQO_ASSIGN_OR_RETURN(FormulaId preds, CompilePredicates(step));
    FormulaId match = preds;
    if (next != kNoState) {
      match = f.And(match, f.Down(EntryChild(next_axis), next));
    }
    bool selecting = next == kNoState;  // final step selects
    asta_.AddTransition(q, TestToLabelSet(step.test), selecting, match);
    // Recursion: root-anchored child steps apply only at the root (no
    // loop); everything else keeps scanning.
    bool root_anchored = is_first && from_ == 0 && path_.absolute &&
                         step.axis != Axis::kDescendant;
    if (!root_anchored) {
      asta_.AddTransition(q, LabelSet::All(), false, LoopFormula(step.axis, q));
    }
    return q;
  }

  StatusOr<FormulaId> CompilePredicates(const Step& step) {
    FormulaArena& f = asta_.formulas();
    FormulaId out = f.True();
    for (const auto& pred : step.predicates) {
      XPWQO_ASSIGN_OR_RETURN(FormulaId p, CompilePredExpr(*pred));
      out = f.And(out, p);
    }
    return out;
  }

  StatusOr<FormulaId> CompilePredExpr(const PredExpr& pred) {
    FormulaArena& f = asta_.formulas();
    switch (pred.kind) {
      case PredExpr::Kind::kAnd: {
        XPWQO_ASSIGN_OR_RETURN(FormulaId a, CompilePredExpr(*pred.lhs));
        XPWQO_ASSIGN_OR_RETURN(FormulaId b, CompilePredExpr(*pred.rhs));
        return f.And(a, b);
      }
      case PredExpr::Kind::kOr: {
        XPWQO_ASSIGN_OR_RETURN(FormulaId a, CompilePredExpr(*pred.lhs));
        XPWQO_ASSIGN_OR_RETURN(FormulaId b, CompilePredExpr(*pred.rhs));
        return f.Or(a, b);
      }
      case PredExpr::Kind::kNot: {
        XPWQO_ASSIGN_OR_RETURN(FormulaId a, CompilePredExpr(*pred.lhs));
        return f.Not(a);
      }
      case PredExpr::Kind::kPath: {
        if (pred.path.steps.empty()) {
          return Status::InvalidArgument("empty predicate path");
        }
        XPWQO_ASSIGN_OR_RETURN(StateId q, CompilePredPath(pred.path, 0));
        return f.Down(EntryChild(pred.path.steps[0].axis), q);
      }
      case PredExpr::Kind::kValueCmp:
        // Value comparisons never reach the automaton compilers: the query
        // planner strips them into the relaxed structural path and verifies
        // candidates in a post-filter (core/value_filter.h).
        return Status::Internal(
            "value comparison predicate reached the automaton compiler");
    }
    return Status::Internal("unknown predicate kind");
  }

  /// Compiles predicate-path steps [i..) into non-marking scan states.
  StatusOr<StateId> CompilePredPath(const Path& path, size_t i) {
    FormulaArena& f = asta_.formulas();
    const Step& step = path.steps[i];
    StateId q = asta_.AddState();
    XPWQO_ASSIGN_OR_RETURN(FormulaId preds, CompilePredicates(step));
    bool is_last = i + 1 == path.steps.size();
    FormulaId match = preds;
    if (!is_last) {
      XPWQO_ASSIGN_OR_RETURN(StateId next, CompilePredPath(path, i + 1));
      match = f.And(match, f.Down(EntryChild(path.steps[i + 1].axis), next));
    }
    LabelSet test = TestToLabelSet(step.test);
    asta_.AddTransition(q, test, false, match);
    // Existential one-witness refinement (Figure 1): a final step whose
    // match is decided by the label alone may stop scanning at the first
    // witness — loop on Σ \ L. Otherwise the scan must go on (a later
    // candidate may satisfy what this one does not).
    LabelSet loop_labels = (is_last && match == f.True())
                               ? LabelSet::All().Minus(test)
                               : LabelSet::All();
    if (!loop_labels.IsEmpty()) {
      asta_.AddTransition(q, std::move(loop_labels), false,
                          LoopFormula(step.axis, q));
    }
    return q;
  }

  const Path& path_;
  size_t from_;
  const Alphabet* alphabet_;
  Asta asta_;
};

}  // namespace

StatusOr<Asta> CompileToAsta(const Path& path, const Alphabet* alphabet) {
  return Compiler(path, 0, alphabet).Compile();
}

StatusOr<Asta> CompileSuffixToAsta(const Path& path, size_t from,
                                   const Alphabet* alphabet) {
  XPWQO_CHECK(from < path.steps.size());
  XPWQO_CHECK(path.steps[from].axis == Axis::kDescendant);
  return Compiler(path, from, alphabet).Compile();
}

}  // namespace xpwqo
