#include "core/prepared_query.h"

#include "xpath/compile.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

/// What a path contains anywhere, predicate paths included.
struct PathShape {
  bool value_cmp = false;  // a value comparison
  /// A test whose label set a later load can change: a '*' or node() (it
  /// excludes the attribute and text labels known at compile time), or —
  /// surveyed with an alphabet — a name it lacks (that compiles to ∅).
  bool open = false;
};

void Survey(const Path& path, const Alphabet* alphabet, PathShape* shape);

void Survey(const PredExpr& pred, const Alphabet* alphabet,
            PathShape* shape) {
  if (pred.kind == PredExpr::Kind::kValueCmp) shape->value_cmp = true;
  if (pred.lhs != nullptr) Survey(*pred.lhs, alphabet, shape);
  if (pred.rhs != nullptr) Survey(*pred.rhs, alphabet, shape);
  Survey(pred.path, alphabet, shape);
}

void Survey(const Path& path, const Alphabet* alphabet, PathShape* shape) {
  for (const Step& step : path.steps) {
    const NodeTest& test = step.test;
    const std::string_view name = test.kind == NodeTestKind::kText
                                      ? std::string_view("#text")
                                      : std::string_view(test.name);
    if (test.kind == NodeTestKind::kStar || test.kind == NodeTestKind::kNode ||
        (alphabet != nullptr && alphabet->Find(name) == kNoLabel)) {
      shape->open = true;
    }
    for (const auto& pred : step.predicates) Survey(*pred, alphabet, shape);
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
      Survey(*pred, nullptr, &shape);
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
  // Read the size before compiling: any label a concurrent load interns
  // from here on makes an open plan stale, whether the compile saw it or
  // not.
  const int size = alphabet->size();
  PathShape shape;
  Survey(plan_path, alphabet.get(), &shape);
  if (shape.open) query.basis_ = size;
  XPWQO_ASSIGN_OR_RETURN(query.asta_,
                         CompileToAsta(plan_path, alphabet.get()));
  if (IsHybridEvaluable(plan_path)) {
    XPWQO_ASSIGN_OR_RETURN(HybridPlan plan,
                           HybridPlan::Make(plan_path, alphabet.get()));
    query.hybrid_ = std::make_unique<HybridPlan>(std::move(plan));
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
