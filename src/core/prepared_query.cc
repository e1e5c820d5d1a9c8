#include "core/prepared_query.h"

#include "xpath/compile.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

/// What a path contains anywhere, predicate paths included.
struct PathShape {
  bool value_cmp = false;  // a value comparison
  bool wildcard = false;   // a '*' or node() test
};

void Survey(const Path& path, PathShape* shape);

void Survey(const PredExpr& pred, PathShape* shape) {
  if (pred.kind == PredExpr::Kind::kValueCmp) shape->value_cmp = true;
  if (pred.lhs != nullptr) Survey(*pred.lhs, shape);
  if (pred.rhs != nullptr) Survey(*pred.rhs, shape);
  Survey(pred.path, shape);
}

void Survey(const Path& path, PathShape* shape) {
  for (const Step& step : path.steps) {
    if (step.test.kind == NodeTestKind::kStar ||
        step.test.kind == NodeTestKind::kNode) {
      shape->wildcard = true;
    }
    for (const auto& pred : step.predicates) Survey(*pred, shape);
  }
}

/// The structural widening: drop every predicate tree that mentions a value
/// comparison anywhere. Dropping the whole tree (not just the comparison
/// inside it) is what keeps the relaxation sound — rewriting value parts of
/// an and/or/not tree to "true" under negation could *narrow* the result,
/// and the post-filter can only discard candidates, never add them.
Path RelaxValuePredicates(const Path& path, bool* stripped) {
  Path out;
  out.absolute = path.absolute;
  out.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    Step step;
    step.axis = s.axis;
    step.test = s.test;
    for (const auto& pred : s.predicates) {
      PathShape shape;
      Survey(*pred, &shape);
      if (shape.value_cmp) {
        *stripped = true;
        continue;
      }
      step.predicates.push_back(ClonePred(*pred));
    }
    out.steps.push_back(std::move(step));
  }
  return out;
}

}  // namespace

StatusOr<PreparedQuery> PreparedQuery::Prepare(
    std::string_view xpath, const std::shared_ptr<Alphabet>& alphabet) {
  if (alphabet == nullptr) {
    return Status::InvalidArgument("Prepare requires a non-null alphabet");
  }
  PreparedQuery query;
  query.alphabet_ = alphabet;
  XPWQO_ASSIGN_OR_RETURN(query.path_, ParseXPath(xpath));
  // Every automaton plan compiles from the structural relaxation; the
  // cursor layer post-filters its candidates against the full path when
  // value predicates were stripped. Without value predicates the relaxed
  // path is an identical clone and nothing changes.
  bool stripped = false;
  query.relaxed_path_ = RelaxValuePredicates(query.path_, &stripped);
  query.has_value_predicates_ = stripped;
  const Path& plan_path = query.relaxed_path_;
  PathShape shape;
  Survey(plan_path, &shape);
  // A wildcard compiles against the attribute and text labels interned so
  // far, so the plan records that basis. When this very compilation
  // interned another such label (a name test like '@id' compiled after
  // the wildcard), a second pass lets the wildcard exclude it too.
  for (int pass = 0; pass < 2; ++pass) {
    if (shape.wildcard) {
      query.wildcard_basis_ = alphabet->non_element_labels();
    }
    XPWQO_ASSIGN_OR_RETURN(query.asta_,
                           CompileToAsta(plan_path, alphabet.get()));
    if (IsHybridEvaluable(plan_path)) {
      XPWQO_ASSIGN_OR_RETURN(HybridPlan plan,
                             HybridPlan::Make(plan_path, alphabet.get()));
      query.hybrid_ = std::make_unique<HybridPlan>(std::move(plan));
    }
    if (!query.stale()) break;
  }
  query.streamable_ = true;
  for (const Step& step : plan_path.steps) {
    if (!step.predicates.empty()) {
      query.streamable_ = false;
      break;
    }
  }
  return query;
}

std::string PreparedQuery::ToString() const { return xpwqo::ToString(path_); }

}  // namespace xpwqo
