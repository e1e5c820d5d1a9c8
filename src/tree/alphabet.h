// Label interning: maps label strings (element tags, "#text", "@attr") to
// dense LabelIds and back.
#ifndef XPWQO_TREE_ALPHABET_H_
#define XPWQO_TREE_ALPHABET_H_

#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "tree/types.h"

namespace xpwqo {

/// A dense, append-only string <-> LabelId table. Documents own one, and
/// only loads write it: document parsers and image/MANIFEST readers intern,
/// while query compilation only reads (Find), so no query string can grow
/// it. A name the alphabet lacks labels no node.
///
/// Thread-safety: fully internally synchronized. Lookups (Find, Name, size,
/// and the hit path of Intern) take a shared lock; only interning a *new*
/// label takes the exclusive lock. This makes the alphabet the single
/// synchronization point of the parallel bulk loader
/// (Collection::LoadAll): concurrent document parses intern through one
/// shared alphabet while queries compile against it. A compiled query
/// whose meaning depends on labels not yet interned records size() and
/// rebinds once it grows (PreparedQuery::stale). The streaming parser
/// keeps a per-document intern cache in front of this table, so the shared
/// lock is touched once per *distinct* label per document, not once per
/// node. Name() returns a stable reference — entries live in a deque and
/// are never moved by later interning.
class Alphabet {
 public:
  Alphabet() = default;
  Alphabet(const Alphabet&) = delete;
  Alphabet& operator=(const Alphabet&) = delete;

  /// Returns the id of `name`, interning it if new. Lookup is heterogeneous
  /// (no temporary std::string), so per-label hits allocate nothing.
  LabelId Intern(std::string_view name);

  /// Returns the id of `name` or kNoLabel if never interned.
  LabelId Find(std::string_view name) const;

  /// Returns the name for an id. Requires 0 <= id < size(). The reference
  /// stays valid for the alphabet's lifetime (append-only deque storage).
  const std::string& Name(LabelId id) const;

  /// Number of interned labels.
  int size() const;

 private:
  mutable std::shared_mutex mu_;
  /// Deque, not vector: growth never moves existing strings, so Name()'s
  /// returned reference (and the string_view keys below) survive concurrent
  /// interning.
  std::deque<std::string> names_;
  /// Keys view into names_ entries — one stored copy per label.
  std::unordered_map<std::string_view, LabelId> ids_;
};

}  // namespace xpwqo

#endif  // XPWQO_TREE_ALPHABET_H_
