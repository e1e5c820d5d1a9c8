// TreeIndex: the jumping primitives of Definition 3.2 over a tree backend
// and its LabelIndex, plus the "topmost labeled nodes" enumeration derived
// from them (d_t to find the first, f_t to step over binary subtrees).
//
// The index is the tree as the evaluators see it: every evaluator entry
// point (EvalAsta, AstaRegionStream, HybridStream, TopDownJumpRun, the
// cursor's value filter) takes one `const TreeIndex&`, and the index picks
// the backend — the pointer-based Document or the SuccinctTree it was
// constructed over. Callers never pass the tree beside
// it. Node identifiers are preorder ranks in both, so the posting lists are
// identical; only the navigation primitives (BinaryEnd/XmlEnd/parent/
// first_child) differ — O(1) array reads on the pointer backend,
// balanced-parentheses kernel calls (FindClose / excess search / Enclose)
// on the succinct one. The *binary* tree of the paper is the
// first-child/next-sibling view: the binary subtree of n spans the
// preorder range [n, BinaryEnd(n)).
//
// Hot loops that navigate per node resolve the backend once, through
// VisitTreeView, and run templated on the static view; drivers that only
// navigate per candidate call the dispatched methods below.
#ifndef XPWQO_INDEX_TREE_INDEX_H_
#define XPWQO_INDEX_TREE_INDEX_H_

#include <memory>
#include <utility>

#include "index/label_index.h"
#include "index/succinct_tree.h"
#include "tree/document.h"
#include "tree/label_set.h"

namespace xpwqo {

/// Jump functions over one document, on either backend. Holds a reference
/// to the backing tree, which must outlive the index.
class TreeIndex {
 public:
  explicit TreeIndex(const Document& doc) : doc_(&doc), labels_(doc) {}
  explicit TreeIndex(const SuccinctTree& tree)
      : tree_(&tree), labels_(tree) {}
  /// From-builder: adopts a LabelIndex grown during streaming ingestion
  /// (LabelPostingsBuilder) instead of re-scanning the label array.
  TreeIndex(const SuccinctTree& tree, LabelIndex labels)
      : tree_(&tree), labels_(std::move(labels)) {}

  /// The pointer backend, or null when succinct-backed (and vice versa).
  const Document* doc() const { return doc_; }
  const SuccinctTree* succinct() const { return tree_; }
  const LabelIndex& labels() const { return labels_; }

  /// d_t(n, L): first *binary-tree* descendant of n (strictly below, in
  /// document order) whose label is in L, or kNullNode.
  NodeId FirstBinaryDescendant(NodeId n, const LabelSet& set) const;

  /// First node of [n, BinaryEnd(n)) — n included — with label in L.
  NodeId FirstInBinarySubtree(NodeId n, const LabelSet& set) const;

  /// f_t(m, L, scope): first *binary* following node of m (document order,
  /// not a binary descendant of m) that is a binary descendant of `scope`
  /// and has a label in L. With d_t this enumerates the topmost L-labeled
  /// nodes of scope's binary subtree:
  ///   first = FirstBinaryDescendant(scope, L)
  ///   next  = NextTopmost(prev, L, scope)
  NodeId NextTopmost(NodeId m, const LabelSet& set, NodeId scope) const;

  /// NextTopmost with the scope's binary end precomputed. Enumeration loops
  /// should hoist BinaryEnd(scope) once and call this variant, so the scope
  /// boundary is not re-derived on every jump. (Hot loops that enumerate a
  /// whole chain should additionally hoist a LabelIndex::SetCursor and probe
  /// it with BinaryEnd(m) directly — see eval.cc / topdown_jump.cc.)
  NodeId NextTopmostBefore(NodeId m, const LabelSet& set,
                           NodeId scope_end) const;

  /// l_t(n, L): first node on the left-most binary path below n (the
  /// first-child chain) with label in L, or kNullNode. O(chain length).
  NodeId LeftPathFirst(NodeId n, const LabelSet& set) const;

  /// r_t(n, L): first node on the right-most binary path below n (the
  /// next-sibling chain) with label in L, or kNullNode. Uses the label
  /// index to skip over sibling subtrees.
  NodeId RightPathFirst(NodeId n, const LabelSet& set) const;

  /// Backend-dispatched navigation (one predictable branch; the posting
  /// probes dominate every caller's cost).
  NodeId BinaryEnd(NodeId n) const {
    return doc_ != nullptr ? doc_->BinaryEnd(n) : tree_->BinaryEnd(n);
  }
  NodeId XmlEnd(NodeId n) const {
    return doc_ != nullptr ? doc_->XmlEnd(n) : tree_->XmlEnd(n);
  }
  NodeId Parent(NodeId n) const {
    return doc_ != nullptr ? doc_->parent(n) : tree_->parent(n);
  }
  NodeId FirstChild(NodeId n) const {
    return doc_ != nullptr ? doc_->first_child(n) : tree_->first_child(n);
  }
  NodeId NextSibling(NodeId n) const {
    return doc_ != nullptr ? doc_->next_sibling(n) : tree_->next_sibling(n);
  }
  LabelId Label(NodeId n) const {
    return doc_ != nullptr ? doc_->label(n) : tree_->label(n);
  }

  /// Global count of a label (O(1), used by the hybrid strategy).
  int32_t Count(LabelId label) const { return labels_.Count(label); }

 private:
  const Document* doc_ = nullptr;
  const SuccinctTree* tree_ = nullptr;
  LabelIndex labels_;
};

/// Static-polymorphism views so the evaluators' hot loops run over either
/// backend without a per-node branch (same NodeIds). Evaluators obtain one
/// through VisitTreeView, never by naming a backend themselves.
struct PointerTreeView {
  const Document* doc;

  int32_t num_nodes() const { return doc->num_nodes(); }
  NodeId root() const { return doc->root(); }
  LabelId label(NodeId n) const { return doc->label(n); }
  NodeId Left(NodeId n) const { return doc->BinaryLeft(n); }
  NodeId Right(NodeId n) const { return doc->BinaryRight(n); }
  NodeId Parent(NodeId n) const { return doc->parent(n); }
  NodeId XmlEnd(NodeId n) const { return doc->XmlEnd(n); }
  NodeId BinaryEnd(NodeId n) const { return doc->BinaryEnd(n); }
};

struct SuccinctTreeView {
  const SuccinctTree* tree;

  int32_t num_nodes() const { return tree->num_nodes(); }
  NodeId root() const { return tree->root(); }
  LabelId label(NodeId n) const { return tree->label(n); }
  NodeId Left(NodeId n) const { return tree->BinaryLeft(n); }
  NodeId Right(NodeId n) const { return tree->BinaryRight(n); }
  NodeId Parent(NodeId n) const { return tree->parent(n); }
  NodeId XmlEnd(NodeId n) const { return tree->XmlEnd(n); }
  NodeId BinaryEnd(NodeId n) const { return tree->BinaryEnd(n); }
};

/// Calls `f` with the static view of the backend `index` was built over —
/// the one backend switch behind every evaluator entry point. `f` must
/// return the same type for both views.
template <typename F>
auto VisitTreeView(const TreeIndex& index, F&& f) {
  if (index.doc() != nullptr) return f(PointerTreeView{index.doc()});
  return f(SuccinctTreeView{index.succinct()});
}

}  // namespace xpwqo

#endif  // XPWQO_INDEX_TREE_INDEX_H_
