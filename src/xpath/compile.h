// Compilation of the XPath fragment into ASTAs (§4.2): one state per step,
// each with a "progress" transition and a recursion transition whose shape
// matches the axis:
//   descendant steps loop with ↓1 q ∨ ↓2 q,
//   child / attribute / following-sibling steps scan siblings with ↓2 q.
// The final step of the main path carries the selecting transition (⇒);
// predicates compile to non-marking sub-automata whose entry formulas are
// conjoined onto the progress transitions.
//
// Following Figure 1, the *last* step of a predicate path (when it has no
// nested predicates itself) loops on Σ \ L instead of Σ: predicates are
// existential, so the scan may stop at the first witness — this is what
// re-enables jumping after a predicate is checked, and what information
// propagation prunes when the witness was already found.
#ifndef XPWQO_XPATH_COMPILE_H_
#define XPWQO_XPATH_COMPILE_H_

#include <memory>

#include "asta/asta.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace xpwqo {

/// Compiles `path` into a finalized ASTA. Compilation only reads
/// `alphabet`: a name test resolves with Alphabet::Find, and a name it has
/// never interned compiles to the empty label set (no node carries it).
StatusOr<Asta> CompileToAsta(const Path& path, const Alphabet* alphabet);

/// Compiles only the steps [from, end) of `path` as a descendant-anchored
/// sub-query (first compiled step searches strict descendants of the
/// context). Used by the hybrid evaluation strategy for the suffix below the
/// pivot. Requires from < path.steps.size().
StatusOr<Asta> CompileSuffixToAsta(const Path& path, size_t from,
                                   const Alphabet* alphabet);

}  // namespace xpwqo

#endif  // XPWQO_XPATH_COMPILE_H_
