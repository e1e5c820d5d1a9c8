// Direct compilation of the *restricted* fragment into deterministic
// selecting tree automata (§1's "extreme |Q|-optimization"): paths of child
// and descendant steps with plain name tests and no predicates become
// TDSTAs evaluated in a single deterministic pass (and, minimized, drive the
// optimal jumping run of Theorem 3.1). The full fragment needs alternation —
// use CompileToAsta for everything else.
#ifndef XPWQO_XPATH_COMPILE_STA_H_
#define XPWQO_XPATH_COMPILE_STA_H_

#include "sta/sta.h"
#include "util/status.h"
#include "xpath/ast.h"

namespace xpwqo {

/// True if the path is a child/descendant name-test chain without
/// predicates.
bool IsTdstaCompilable(const Path& path);

/// Compiles a compilable path into a complete TDSTA. Returns Unimplemented
/// for paths outside the restricted fragment. Only reads `alphabet`: a
/// name it has never interned matches no label.
StatusOr<Sta> CompileToTdsta(const Path& path, const Alphabet* alphabet);

}  // namespace xpwqo

#endif  // XPWQO_XPATH_COMPILE_STA_H_
