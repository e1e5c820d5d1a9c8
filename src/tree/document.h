// Document: the array-based XML tree shared by every engine in the library.
//
// Nodes are stored in preorder (document order); NodeId doubles as the
// preorder rank. The binary-tree view of the paper (first-child/next-sibling
// encoding) is exposed through BinaryLeft/BinaryRight: the '#' leaves are the
// kNullNode children. Attributes are encoded as leading children labeled
// "@name"; text nodes as children labeled "#text" (the paper's tree-oriented
// fragment never matches them with a tag test, so they are inert unless a
// query asks for them).
#ifndef XPWQO_TREE_DOCUMENT_H_
#define XPWQO_TREE_DOCUMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "tree/alphabet.h"
#include "tree/types.h"
#include "util/check.h"

namespace xpwqo {

class TreeBuilder;

/// An immutable document tree. Build via TreeBuilder, the XML parser, or the
/// XMark generator.
class Document {
 public:
  Document() : alphabet_(std::make_shared<Alphabet>()) {}

  /// Number of nodes. Valid NodeIds are [0, num_nodes()).
  int32_t num_nodes() const { return static_cast<int32_t>(labels_.size()); }

  /// The root node, or kNullNode for an empty document.
  NodeId root() const { return num_nodes() == 0 ? kNullNode : 0; }

  LabelId label(NodeId n) const { return labels_[Check(n)]; }
  NodeKind kind(NodeId n) const { return kinds_[Check(n)]; }
  NodeId parent(NodeId n) const { return parent_[Check(n)]; }
  NodeId first_child(NodeId n) const { return first_child_[Check(n)]; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[Check(n)]; }

  /// Number of nodes in the XML subtree rooted at n (including n).
  int32_t subtree_size(NodeId n) const { return subtree_size_[Check(n)]; }

  /// One past the last preorder id in n's XML subtree: descendants-or-self of
  /// n occupy the preorder range [n, XmlEnd(n)).
  NodeId XmlEnd(NodeId n) const { return n + subtree_size(n); }

  /// Left child in the binary encoding (= first child).
  NodeId BinaryLeft(NodeId n) const { return first_child(n); }
  /// Right child in the binary encoding (= next sibling).
  NodeId BinaryRight(NodeId n) const { return next_sibling(n); }

  /// One past the last preorder id of n's *binary* subtree. The binary
  /// subtree of n spans n's XML subtree plus all following siblings and
  /// their subtrees, i.e. the range [n, BinaryEnd(n)).
  NodeId BinaryEnd(NodeId n) const {
    NodeId p = parent(n);
    return p == kNullNode ? XmlEnd(n) : XmlEnd(p);
  }

  /// Depth of n (root has depth 0). O(depth).
  int Depth(NodeId n) const;

  /// Text content attached to a #text or @attr node ("" otherwise).
  const std::string& text(NodeId n) const;

  const Alphabet& alphabet() const { return *alphabet_; }
  /// Shared alphabet handle: documents loaded later into the same
  /// collection intern through it; query compilation only reads it.
  const std::shared_ptr<Alphabet>& alphabet_ptr() const { return alphabet_; }

  /// Name of n's label.
  const std::string& LabelName(NodeId n) const {
    return alphabet_->Name(label(n));
  }

  /// Root-to-node path such as "/site/regions/item" (for diagnostics).
  std::string PathTo(NodeId n) const;

  /// Approximate in-memory footprint of the node arrays, in bytes.
  size_t MemoryUsage() const;

 private:
  friend class TreeBuilder;

  NodeId Check(NodeId n) const {
    XPWQO_DCHECK(n >= 0 && n < num_nodes());
    return n;
  }

  std::shared_ptr<Alphabet> alphabet_;
  std::vector<LabelId> labels_;
  std::vector<NodeKind> kinds_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<int32_t> subtree_size_;
  std::vector<int32_t> text_index_;  // -1 or index into texts_
  std::vector<std::string> texts_;
};

}  // namespace xpwqo

#endif  // XPWQO_TREE_DOCUMENT_H_
