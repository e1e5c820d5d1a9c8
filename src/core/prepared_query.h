// PreparedQuery: an XPath string parsed and compiled exactly once against a
// shared Alphabet — the serving-side "prepared statement". Holds every plan
// a ResultCursor runs: the Path AST, the ASTA (all Figure-4 strategies) and
// a HybridPlan for descendant chains. A prepared query is immutable after
// Prepare() and bindable to any document or Engine built over the same
// Alphabet, current and future — compile once, run on every shard.
//
// Thread-safety contract: Prepare() only reads the internally synchronized
// Alphabet (only document loads intern), so it may race other compilations,
// loads and queries freely. Afterwards the object is const-thread-safe:
// concurrent Run()/ResultCursor evaluations of one PreparedQuery are safe
// (evaluation state lives in the evaluators, never in the query).
#ifndef XPWQO_CORE_PREPARED_QUERY_H_
#define XPWQO_CORE_PREPARED_QUERY_H_

#include <memory>
#include <string>
#include <string_view>

#include "asta/asta.h"
#include "tree/alphabet.h"
#include "util/status.h"
#include "xpath/ast.h"
#include "xpath/hybrid.h"

namespace xpwqo {

class PreparedQuery {
 public:
  /// Parses and compiles `xpath` against `alphabet`, which must be
  /// non-null and is never written: a name it lacks matches nothing until
  /// a load interns a label, which makes the query stale().
  static StatusOr<PreparedQuery> Prepare(
      std::string_view xpath, const std::shared_ptr<Alphabet>& alphabet);

  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  const Path& path() const { return path_; }
  /// The structural relaxation the automaton plans are compiled from:
  /// `path_` with every predicate tree that contains a value comparison
  /// removed. A pure widening — its matches are a superset of the true
  /// answer — so the cursor layer re-verifies candidates against the full
  /// original path (core/value_filter.h). Identical to path() when the
  /// query has no value predicates.
  const Path& relaxed_path() const { return relaxed_path_; }
  /// True when the query contains a value comparison ([text()='v'],
  /// [@attr='v'], [contains(...,'v')]) anywhere, so evaluation needs the
  /// post-filter stage (and a content source: Document or TextStore).
  bool has_value_predicates() const { return has_value_predicates_; }
  /// The automaton of relaxed_path(): every Figure-4 strategy runs it, and
  /// so does the hybrid stream when its pivot is the first step.
  const Asta& asta() const { return asta_; }
  /// Start-anywhere plan, or null when the path is not a //-chain.
  const HybridPlan* hybrid() const { return hybrid_.get(); }
  /// True when a ResultCursor can emit matches incrementally: the path has
  /// no predicates, so every automaton mark is final the moment its region
  /// completes (selection queries of this shape never reject a tree).
  bool streamable() const { return streamable_; }
  /// True when the plan may no longer fit the alphabet: it has a '*' or
  /// node() test (compiled to "every label except the attribute and text
  /// labels known so far") or a name test the alphabet lacked, and a load
  /// has interned a label since. Engines then run the query cache's fresh
  /// compilation of ToString() instead, and the cache recompiles a stale
  /// entry. Always false without such a test: the plan fits every later
  /// alphabet.
  bool stale() const { return basis_ >= 0 && alphabet_->size() > basis_; }
  /// The alphabet the query was compiled against; evaluation requires the
  /// document to share it.
  const std::shared_ptr<Alphabet>& alphabet_ptr() const { return alphabet_; }
  /// Unparsed canonical form.
  std::string ToString() const;

 private:
  PreparedQuery() = default;

  std::shared_ptr<Alphabet> alphabet_;
  Path path_;
  Path relaxed_path_;  // path_ minus value-comparison predicate trees
  bool has_value_predicates_ = false;
  Asta asta_;
  std::unique_ptr<HybridPlan> hybrid_;  // null if not hybrid-evaluable
  bool streamable_ = false;
  // Alphabet::size() read before compiling; -1 when no test of the plan
  // changes meaning as the alphabet grows.
  int basis_ = -1;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_PREPARED_QUERY_H_
