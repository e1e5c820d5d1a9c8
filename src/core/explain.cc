#include "core/explain.h"

#include "asta/tda.h"
#include "util/strings.h"
#include "xpath/hybrid.h"

namespace xpwqo {
namespace {

const char* LoopKindName(LoopKind kind) {
  switch (kind) {
    case LoopKind::kNone:
      return "step (no jump)";
    case LoopKind::kBoth:
      return "jump to top-most essential descendants (d_t/f_t)";
    case LoopKind::kLeft:
      return "jump along the left-most path (l_t)";
    case LoopKind::kRight:
      return "jump along the sibling chain (r_t)";
  }
  return "?";
}

}  // namespace

std::string ExplainQuery(const Engine& engine, const PreparedQuery& query,
                         const ExplainOptions& options) {
  const Alphabet& alphabet = engine.alphabet();
  std::string out;
  out += "query:      " + query.ToString() + "\n";
  out += "strategy:   compiled to an alternating selecting tree automaton "
         "(" +
         std::to_string(query.asta().num_states()) + " states, " +
         std::to_string(query.asta().transitions().size()) +
         " transitions)\n";
  out += std::string("hybrid:     ") +
         (IsHybridEvaluable(query.path()) ? "applicable (descendant chain)"
                                          : "not applicable") +
         "\n";
  if (options.show_transitions) {
    out += "\n" + query.asta().ToString(alphabet);
  }
  if (options.show_jump_analysis) {
    out += "\nper-state jump analysis:\n";
    TdaAnalysis analysis(query.asta());
    for (StateId q = 0; q < query.asta().num_states(); ++q) {
      const StateLoopInfo& info = analysis.StateInfo(q);
      out += "  q" + std::to_string(q) + ": " + LoopKindName(info.kind);
      if (info.kind != LoopKind::kNone) {
        out += ", essential labels " + info.essential.ToString(alphabet);
      }
      if (query.asta().IsMarking(q)) out += " [marking]";
      out += "\n";
    }
  }
  if (options.show_label_counts) {
    out += "\ndocument label counts:\n";
    for (LabelId l : query.asta().MentionedLabels()) {
      if (l < 0 || l >= alphabet.size()) continue;
      out += "  " + alphabet.Name(l) + ": " +
             WithCommas(static_cast<uint64_t>(engine.index().Count(l))) +
             "\n";
    }
  }
  return out;
}

StatusOr<std::string> ExplainQuery(const Engine& engine,
                                   std::string_view xpath,
                                   const ExplainOptions& options) {
  XPWQO_ASSIGN_OR_RETURN(PreparedQuery query, engine.Compile(xpath));
  return ExplainQuery(engine, query, options);
}

std::string FormatStats(const AstaEvalStats& stats, int64_t total_nodes) {
  std::string out = "visited " +
                    WithCommas(static_cast<uint64_t>(stats.nodes_visited)) +
                    " of " +
                    WithCommas(static_cast<uint64_t>(total_nodes)) +
                    " nodes, " +
                    WithCommas(static_cast<uint64_t>(stats.jumps)) +
                    " jumps, " +
                    WithCommas(static_cast<uint64_t>(
                        stats.memo_step_entries + stats.memo_eval_entries)) +
                    " memo entries, " +
                    WithCommas(static_cast<uint64_t>(stats.interned_sets)) +
                    " state sets";
  return out;
}

}  // namespace xpwqo
