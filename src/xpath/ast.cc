#include "xpath/ast.h"

namespace xpwqo {
namespace {

std::string TestToString(const NodeTest& test) {
  switch (test.kind) {
    case NodeTestKind::kName:
      return test.name;
    case NodeTestKind::kStar:
      return "*";
    case NodeTestKind::kNode:
      return "node()";
    case NodeTestKind::kText:
      return "text()";
  }
  return "?";
}

}  // namespace

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

std::string ToString(const Path& path) {
  std::string out;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const Step& s = path.steps[i];
    if (i > 0 || path.absolute) out += "/";
    if (s.axis == Axis::kAttribute && s.test.kind == NodeTestKind::kName) {
      out += s.test.name;  // the name carries its '@' prefix
    } else {
      out += AxisName(s.axis);
      out += "::";
      out += TestToString(s.test);
    }
    for (const auto& p : s.predicates) {
      out += "[" + ToString(*p) + "]";
    }
  }
  return out;
}

std::string ToString(const PredExpr& pred) {
  switch (pred.kind) {
    case PredExpr::Kind::kAnd:
      return "(" + ToString(*pred.lhs) + " and " + ToString(*pred.rhs) + ")";
    case PredExpr::Kind::kOr:
      return "(" + ToString(*pred.lhs) + " or " + ToString(*pred.rhs) + ")";
    case PredExpr::Kind::kNot:
      return "not(" + ToString(*pred.lhs) + ")";
    case PredExpr::Kind::kPath:
      return ToString(pred.path);
    case PredExpr::Kind::kValueCmp: {
      // XPath literals have no escapes: quote with whichever character the
      // literal does not contain (the parser never yields one with both).
      const char quote =
          pred.literal.find('\'') == std::string::npos ? '\'' : '"';
      const std::string literal = quote + pred.literal + quote;
      return pred.op == ValueCmpOp::kContains
                 ? "contains(" + ToString(pred.path) + "," + literal + ")"
                 : ToString(pred.path) + "=" + literal;
    }
  }
  return "?";
}

Path ClonePath(const Path& path) {
  Path out;
  out.absolute = path.absolute;
  out.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    Step step;
    step.axis = s.axis;
    step.test = s.test;
    step.predicates.reserve(s.predicates.size());
    for (const auto& p : s.predicates) {
      step.predicates.push_back(ClonePred(*p));
    }
    out.steps.push_back(std::move(step));
  }
  return out;
}

std::unique_ptr<PredExpr> ClonePred(const PredExpr& pred) {
  auto out = std::make_unique<PredExpr>();
  out->kind = pred.kind;
  if (pred.lhs != nullptr) out->lhs = ClonePred(*pred.lhs);
  if (pred.rhs != nullptr) out->rhs = ClonePred(*pred.rhs);
  out->path = ClonePath(pred.path);
  out->op = pred.op;
  out->literal = pred.literal;
  return out;
}

}  // namespace xpwqo
