// TextStore: the content layer of the succinct index — attribute values and
// text content for a tree whose structure lives in SuccinctTree/Document.
//
// Values are stored as one concatenated UTF-8 heap plus a sparse node→value
// mapping: a has-value bitmap over preorder NodeIds (1 exactly for @attr and
// #text nodes) whose Rank1 indexes a (num_values + 1)-entry offset directory
// into the heap. Lookup is O(1): one rank, two offset reads, zero copies —
// Value() returns a string_view into the heap.
//
// Like BitVector and the posting lists, the store is dual-mode: the build
// path owns its heap and offsets (populated streaming by the ingestion
// sinks, value by value, with no intermediate Document), while an engine
// opened from an index image wraps the mapped `text` section in place
// (FromExternal) and re-serializes byte-identically — the fixpoint property
// the persist round-trip tests pin down.
#ifndef XPWQO_INDEX_TEXT_STORE_H_
#define XPWQO_INDEX_TEXT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "index/bit_vector.h"
#include "tree/types.h"
#include "util/status.h"

namespace xpwqo {

class Document;

/// Immutable node→value map. Build through TextStoreBuilder (streaming),
/// FromDocument (pointer backend), or FromExternal (mapped image).
class TextStore {
 public:
  TextStore() = default;
  TextStore(TextStore&&) noexcept = default;
  TextStore& operator=(TextStore&&) noexcept = default;

  /// Collects the values of every @attr and #text node of `doc`.
  static TextStore FromDocument(const Document& doc);

  /// Wraps `length` bytes of serialized store (an image's text section)
  /// without copying the offsets or the heap; `num_nodes` is the node count
  /// the structural sections already established. Validates the layout:
  /// exact length, zero reserved fields, bitmap population == num_values,
  /// offset monotonicity, final offset == heap length. The bytes must be
  /// 8-aligned and outlive the store.
  static StatusOr<TextStore> FromExternal(const uint8_t* data, size_t length,
                                          size_t num_nodes);

  /// Exact byte size SerializeTo appends for these parameters.
  static size_t SerializedBytes(size_t num_nodes, size_t num_values,
                                size_t heap_bytes) {
    return kHeaderBytes + BitVector::SerializedWordBytes(num_nodes) +
           (num_values + 1) * sizeof(uint64_t) + heap_bytes;
  }

  /// Appends the serialized store: a 32-byte header {num_values, heap_bytes,
  /// 0, 0}, the has-value bitmap words, the offset directory, the heap.
  /// Byte-for-byte deterministic; an external store re-serializes to exactly
  /// the bytes it wraps.
  void SerializeTo(std::string* out) const;

  /// Node count the bitmap covers (== the tree's node count).
  size_t num_nodes() const { return has_.size(); }
  size_t num_values() const { return num_values_; }
  size_t heap_bytes() const { return heap_bytes_; }
  /// True when the offsets and heap live in external (mapped) memory.
  bool external() const { return external_; }

  /// True when `n` is a value-bearing (@attr or #text) node.
  bool has_value(NodeId n) const {
    return has_.Get(static_cast<size_t>(n));
  }

  /// The value of node `n`, or an empty view for valueless nodes. The view
  /// points into the heap (or the mapped image) — no copy.
  std::string_view Value(NodeId n) const {
    const size_t i = static_cast<size_t>(n);
    if (!has_.Get(i)) return {};
    const size_t k = has_.Rank1(i);  // values strictly before n
    const uint64_t begin = offsets()[k];
    return std::string_view(heap() + begin,
                            static_cast<size_t>(offsets()[k + 1] - begin));
  }

  /// Bytes held live: bitmap + rank directory + offsets + heap (mapped
  /// bytes count too — they are resident while the store is).
  size_t MemoryUsage() const;

 private:
  friend class TextStoreBuilder;

  static constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);

  const uint64_t* offsets() const {
    return external_ ? ext_offsets_ : owned_offsets_.data();
  }
  const char* heap() const {
    return external_ ? ext_heap_ : owned_heap_.data();
  }

  BitVector has_;
  // Owned mode (build path): the directory and heap live here.
  std::vector<uint64_t> owned_offsets_{0};
  std::string owned_heap_;
  // External mode: views into the mapped image (kept alive by the Engine).
  const uint64_t* ext_offsets_ = nullptr;
  const char* ext_heap_ = nullptr;
  size_t num_values_ = 0;
  size_t heap_bytes_ = 0;
  bool external_ = false;
};

/// Streaming construction: the ingestion sink calls AddNode() for each
/// valueless node and AddValue() for each @attr/#text node, in preorder —
/// exactly the order the tree builder assigns NodeIds.
class TextStoreBuilder {
 public:
  void ReserveNodes(size_t nodes) {
    GrowWordsTo(nodes / 64 + 2);
    GrowHeapTo(nodes * 4);
    offsets_.reserve(nodes / 4 + 16);
  }

  /// Pre-sizes for a document of `input_bytes` serialized XML. Character
  /// data and attribute values are the bulk of a text-bearing document's
  /// bytes (markup is the rest), so the heap gets most of the estimate —
  /// sizing it from a node-count guess instead starves it and the growth
  /// reallocs dominate the streaming build.
  void ReserveForInput(size_t input_bytes) {
    GrowWordsTo(input_bytes / 1024 + 2);
    GrowHeapTo(input_bytes - input_bytes / 3);
    offsets_.reserve(input_bytes / 28 + 16);
  }

  /// Registers a node with no value (elements) — a bare counter bump:
  /// the bitmap words are assembled directly (zero means no value), so
  /// the majority node kind costs one increment, not a bit push.
  void AddNode() { ++nodes_; }

  /// Registers a value-bearing node: sets its bitmap bit (one shift-or
  /// into the word array) and appends its content to the heap. Every step
  /// stays inline — this runs once per @attr/#text node on the streaming
  /// ingestion hot path, where an out-of-line call per value (a libc
  /// memcpy, a libstdc++ string append, a BitVector push) measurably
  /// drags the whole-document load rate.
  void AddValue(std::string_view value) {
    const size_t i = nodes_++;
    const size_t w = i >> 6;
    if (w >= words_.size()) GrowWordsTo(w + 1);
    words_[w] |= uint64_t{1} << (i & 63);
    const size_t n = value.size();
    if (used_ + n > heap_.size()) GrowHeapTo(used_ + n);
    char* dst = &heap_[used_];
    const char* src = value.data();
    if (n <= 16) {
      // Typical values (attribute ids, single words) are a handful of
      // bytes; a libc memcpy call per value is pure overhead. Overlapping
      // fixed-width halves copy [0,n) exactly without reading past either
      // buffer.
      if (n >= 8) {
        uint64_t a, b;
        std::memcpy(&a, src, 8);
        std::memcpy(&b, src + n - 8, 8);
        std::memcpy(dst, &a, 8);
        std::memcpy(dst + n - 8, &b, 8);
      } else if (n >= 4) {
        uint32_t a, b;
        std::memcpy(&a, src, 4);
        std::memcpy(&b, src + n - 4, 4);
        std::memcpy(dst, &a, 4);
        std::memcpy(dst + n - 4, &b, 4);
      } else {
        for (size_t k = 0; k < n; ++k) dst[k] = src[k];
      }
    } else {
      std::memcpy(dst, src, n);
    }
    used_ += n;
    offsets_.push_back(used_);
  }

  /// Freezes the bitmap and hands the store over.
  TextStore Finish() &&;

 private:
  // Grows the append buffer without value-initializing the slack — the
  // live prefix is always written by AddValue before it is read, and a
  // plain resize() would memset (and fault in) megabytes per load that
  // the stream immediately overwrites.
  void GrowHeapTo(size_t need) {
    if (need > heap_.size()) {
      const size_t target = std::max(need, heap_.size() + heap_.size() / 2);
#if defined(__cpp_lib_string_resize_and_overwrite)
      heap_.resize_and_overwrite(target, [](char*, size_t n) { return n; });
#else
      heap_.resize(target);
#endif
    }
  }

  void GrowWordsTo(size_t need) {
    if (need > words_.size()) {
      words_.resize(std::max(need, words_.size() + words_.size() / 2), 0);
    }
  }

  std::vector<uint64_t> words_;  // has-value bitmap words, built in place
  std::vector<uint64_t> offsets_{0};
  std::string heap_;  // grown ahead of the writes; bytes [0, used_) are live
  size_t used_ = 0;
  size_t nodes_ = 0;  // preorder id of the next registered node
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_TEXT_STORE_H_
