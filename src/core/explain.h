// Query introspection: a human-readable account of how the engine will
// evaluate a query — the parsed plan, the compiled automaton, and the jump
// classification of every state (which is what decides how much of the
// document the run can skip). The EXPLAIN of this engine.
#ifndef XPWQO_CORE_EXPLAIN_H_
#define XPWQO_CORE_EXPLAIN_H_

#include <string>

#include "core/engine.h"

namespace xpwqo {

struct ExplainOptions {
  /// Include the full transition listing of the compiled ASTA.
  bool show_transitions = true;
  /// Include the per-state loop-shape/jump analysis.
  bool show_jump_analysis = true;
  /// Include per-label document statistics (requires the engine's index).
  bool show_label_counts = true;
};

/// Renders an explanation of `query` against `engine`'s document.
std::string ExplainQuery(const Engine& engine, const PreparedQuery& query,
                         const ExplainOptions& options = {});

/// Parse+compile+explain in one call.
StatusOr<std::string> ExplainQuery(const Engine& engine,
                                   std::string_view xpath,
                                   const ExplainOptions& options = {});

/// One-line summary of evaluation statistics ("visited 2,528 of 126,285
/// nodes, 17 jumps, 25 memo entries, 5 state sets").
std::string FormatStats(const AstaEvalStats& stats, int64_t total_nodes);

}  // namespace xpwqo

#endif  // XPWQO_CORE_EXPLAIN_H_
