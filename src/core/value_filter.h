// Value-predicate post-filter: the second half of the relaxed-plan scheme.
//
// PreparedQuery compiles every automaton plan from a structural relaxation
// of the path (each predicate tree containing a value comparison removed —
// a pure widening), so the producers stream a *superset* of the answer.
// This layer closes the gap: a PathVerifier re-checks each candidate
// against the full original path — including [text()='v'], [@attr='v'] and
// [contains(...,'v')] — by navigating the engine's TreeIndex (whichever
// backend it wraps) and reading values from the pointer Document when the
// engine holds one, else from the TextStore. Every visited node is charged
// to the query's ExecMonitor — the cursor's one countdown, which the
// relaxed plan charges too — so governed serving keeps its deadline
// guarantees through the comparison work.
//
// The baseline strategy never comes through here: it evaluates the original
// path natively (baseline/nodeset_eval.cc) and doubles as the oracle the
// parity tests compare against.
#ifndef XPWQO_CORE_VALUE_FILTER_H_
#define XPWQO_CORE_VALUE_FILTER_H_

#include <memory>

#include "core/cursor.h"
#include "tree/alphabet.h"
#include "util/exec_control.h"
#include "xpath/ast.h"

namespace xpwqo {
namespace internal {

/// Wraps a relaxed-plan producer in a verification stage that keeps only
/// the candidates the full `path` selects. `ctx` must carry a value source
/// (doc or text) — OpenCursor rejects the call otherwise — and `path`,
/// `alphabet`, `ctx` and `monitor` (the cursor's, borrowed) must outlive
/// the returned producer. Document order and the streaming/SkipHint
/// contracts pass through unchanged; verification work is charged to
/// `monitor`, and once it stops no further batch is produced.
std::unique_ptr<CursorImpl> WrapWithValueFilter(
    std::unique_ptr<CursorImpl> inner, const Path& path,
    const CursorContext& ctx, const Alphabet& alphabet, ExecMonitor* monitor);

}  // namespace internal
}  // namespace xpwqo

#endif  // XPWQO_CORE_VALUE_FILTER_H_
