// Engine: one document plus its index — the per-document slice of the
// serving surface. Queries are prepared once (PreparedQuery), results pull
// through a streaming ResultCursor, and many engines sharing one Alphabet
// form a Collection (collection.h) that a single prepared query spans.
//
//   Collection library;
//   XPWQO_RETURN_IF_ERROR(library.AddXmlFile("2024", "sales-2024.xml"));
//   XPWQO_RETURN_IF_ERROR(
//       library.AddXmlFile("2025", "sales-2025.xml",
//                          {.backend = TreeBackend::kSuccinct}));
//   // Compile once against the shared alphabet, run on every document:
//   XPWQO_ASSIGN_OR_RETURN(PreparedQuery q,
//                          library.Prepare("//listitem//keyword"));
//   for (const std::string& name : library.names()) {
//     XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor,
//                            library.OpenCursor(name, q));
//     for (NodeId n = cursor.Next(); n != kNullNode; n = cursor.Next()) {
//       ...  // stop any time: LIMIT-k never sweeps the rest of the tree
//     }
//   }
//
// Single-document usage keeps the classic one-liners; the string overload
// of Run caches compilations in a small LRU, so repeated query strings stop
// recompiling:
//
//   XPWQO_ASSIGN_OR_RETURN(Engine engine, Engine::FromXmlFile("doc.xml"));
//   XPWQO_ASSIGN_OR_RETURN(QueryResult r, engine.Run("//listitem//keyword"));
//
// Thread-safety: a loaded Engine is const-thread-safe — concurrent Run()
// and cursors are fine, including through the string overload (the query
// cache is internally locked). Compiling only reads the shared Alphabet
// (only loads intern), so compilations may race each other and document
// loads freely; a plan a later load made stale rebinds when it runs.
#ifndef XPWQO_CORE_ENGINE_H_
#define XPWQO_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/cursor.h"
#include "core/prepared_query.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "index/text_store.h"
#include "index/tree_index.h"
#include "tree/document.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/ast.h"

namespace xpwqo {

/// Which tree representation the engine evaluates on. The pointer backend
/// is the default; the succinct backend keeps the topology in ~2 bits/node
/// (plus directories) and runs every strategy — including jumping — through
/// the balanced-parentheses kernels and a succinct-backed TreeIndex.
enum class TreeBackend {
  kPointer,
  kSuccinct,
};

const char* TreeBackendName(TreeBackend backend);

/// How to load XML into an engine. The backend picks the ingestion
/// pipeline: the pointer backend streams parser events into a TreeBuilder;
/// the succinct backend streams the same events into a SuccinctBuilder and
/// a LabelPostingsBuilder, so no pointer Document is ever materialized and
/// peak load memory stays near the steady-state footprint.
struct LoadOptions {
  TreeBackend backend = TreeBackend::kPointer;
  XmlParseOptions parse;
  /// Intern labels through this alphabet instead of a fresh private one —
  /// the Collection path: every document of a collection shares one
  /// alphabet so one PreparedQuery binds to all of them.
  std::shared_ptr<Alphabet> alphabet;
};

/// Memory accounting of the loaded index structures, reported by the
/// benches' JSON output. All byte counts are the frozen in-memory sizes.
struct IndexMemoryReport {
  size_t label_index_bytes = 0;         // compressed posting lists
  size_t label_index_vector_bytes = 0;  // same lists as plain vectors
  size_t dense_labels = 0;              // bitmap-backed labels
  size_t sparse_labels = 0;             // delta-block-backed labels
  size_t tree_bytes = 0;  // backing tree (succinct BP or pointer arrays)
  size_t text_store_bytes = 0;  // content layer (bitmap + offsets + heap)

  double compression_ratio() const {
    return label_index_bytes > 0
               ? static_cast<double>(label_index_vector_bytes) /
                     static_cast<double>(label_index_bytes)
               : 0.0;
  }
};

/// One document plus its index; immutable after construction, cheap to move.
class Engine {
 public:
  /// Streams the XML into the backend selected by `options` — the single
  /// entry point that chooses the ingestion pipeline.
  static StatusOr<Engine> FromXmlFile(const std::string& path,
                                      const LoadOptions& options = {});
  static StatusOr<Engine> FromXmlString(std::string_view xml,
                                        const LoadOptions& options = {});
  /// Backend-only conveniences.
  static StatusOr<Engine> FromXmlFile(const std::string& path,
                                      TreeBackend backend);
  static StatusOr<Engine> FromXmlString(std::string_view xml,
                                        TreeBackend backend);
  /// Wraps an already-materialized Document (kept even on the succinct
  /// backend — it is already paid for; use the FromXml* loaders to avoid
  /// materializing one at all).
  static Engine FromDocument(Document doc,
                             TreeBackend backend = TreeBackend::kPointer);

  /// Assembles a succinct-backend engine from persistent-image parts: a
  /// SuccinctTree and LabelIndex whose raw bytes live inside `backing`
  /// (the mapped image), which the engine keeps alive for its lifetime.
  /// The persist loader (persist/index_image.h) validates everything
  /// before calling this.
  /// `text` is the content layer from the image's text section (required).
  static Engine FromImageParts(std::shared_ptr<Alphabet> alphabet,
                               std::unique_ptr<SuccinctTree> tree,
                               LabelIndex labels,
                               std::unique_ptr<TextStore> text,
                               std::shared_ptr<const void> backing);

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();

  /// Parses and compiles an XPath expression of the supported fragment
  /// against this engine's alphabet (equivalent to PreparedQuery::Prepare).
  StatusOr<PreparedQuery> Compile(std::string_view xpath) const;

  /// Opens a streaming cursor over the query's results. The query must
  /// have been prepared against this engine's alphabet (else
  /// kInvalidArgument); it and the engine must outlive the cursor. Like
  /// every bind, a stale() query runs as the query cache's compilation of
  /// its ToString(), which the cursor keeps alive.
  StatusOr<ResultCursor> OpenCursor(const PreparedQuery& query,
                                    const QueryOptions& options = {}) const;

  /// String convenience: compiles through the engine's LRU query cache and
  /// hands the cursor shared ownership of the compilation.
  StatusOr<ResultCursor> OpenCursor(std::string_view xpath,
                                    const QueryOptions& options = {}) const;

  /// Shared-compilation overload: the cursor co-owns `query`, so the
  /// caller may drop its reference (Collection's string overload and the
  /// serving runtime open cursors this way).
  StatusOr<ResultCursor> OpenCursor(std::shared_ptr<const PreparedQuery> query,
                                    const QueryOptions& options = {}) const;

  /// Runs a compiled query to completion: drains the cursor OpenCursor
  /// opens into one materialized result. When a QueryOptions::control
  /// limit stops the run, returns that stop (kDeadlineExceeded /
  /// kCancelled / kResourceExhausted) instead of a partial answer.
  StatusOr<QueryResult> Run(const PreparedQuery& query,
                            const QueryOptions& options = {}) const;

  /// Parses, compiles and runs in one call. Compilations are cached in a
  /// small LRU keyed by the query string, so repeated calls stop paying
  /// parse + compile; QueryResult::stats::query_cache_hits reports the
  /// cache's cumulative hits.
  StatusOr<QueryResult> Run(std::string_view xpath,
                            const QueryOptions& options = {}) const;

  /// exists() pushdown: true when the query selects at least one node.
  /// Opens a streaming cursor and stops at the first match — the LIMIT-1
  /// machinery, so an existence check never sweeps the document. `stats`
  /// (optional) receives the cursor statistics (visited-node counts).
  StatusOr<bool> Exists(const PreparedQuery& query,
                        const QueryOptions& options = {},
                        CursorStats* stats = nullptr) const;
  StatusOr<bool> Exists(std::string_view xpath,
                        const QueryOptions& options = {},
                        CursorStats* stats = nullptr) const;

  /// count() without materializing: drains a streaming cursor counting
  /// matches instead of collecting them.
  StatusOr<size_t> Count(const PreparedQuery& query,
                         const QueryOptions& options = {},
                         CursorStats* stats = nullptr) const;
  StatusOr<size_t> Count(std::string_view xpath,
                         const QueryOptions& options = {},
                         CursorStats* stats = nullptr) const;

  /// The pointer Document. Requires has_document(): engines loaded straight
  /// into the succinct backend never materialize one.
  const Document& document() const {
    XPWQO_CHECK(doc_ != nullptr);
    return *doc_;
  }
  bool has_document() const { return doc_ != nullptr; }
  const TreeIndex& index() const { return *index_; }
  /// The label alphabet (shared by the document representation and query
  /// compilation, whichever backend is loaded).
  const Alphabet& alphabet() const { return *alphabet_; }
  const std::shared_ptr<Alphabet>& alphabet_ptr() const { return alphabet_; }
  /// Number of nodes, on either backend.
  int32_t num_nodes() const {
    return doc_ != nullptr ? doc_->num_nodes() : succinct_->num_nodes();
  }
  TreeBackend backend() const {
    return succinct_ == nullptr ? TreeBackend::kPointer
                                : TreeBackend::kSuccinct;
  }
  /// The succinct tree, or null on the pointer backend.
  const SuccinctTree* succinct_tree() const { return succinct_.get(); }
  /// The content layer, or null when the engine holds a Document, which
  /// serves the values instead. Streamed succinct loads and image opens
  /// always carry one.
  const TextStore* text_store() const { return text_.get(); }
  /// Root-to-node label path such as "/site/regions/item", on either
  /// backend (diagnostics; the examples print match locations with it).
  std::string PathTo(NodeId n) const;
  /// Serializes the subtree rooted at `n` (kNullNode = whole document)
  /// back to XML text, from the Document when the engine holds one or else
  /// from the succinct tree plus the TextStore.
  std::string SerializeSubtree(NodeId n = kNullNode,
                               const XmlSerializeOptions& options = {}) const;
  /// Memory accounting of the loaded tree + label index.
  IndexMemoryReport IndexMemory() const;

  /// The string-compilation LRU this engine compiles through. Private by
  /// default; Collection replaces it with one cache shared across all its
  /// engines so a query string compiles once per collection, not per shard.
  const std::shared_ptr<QueryCache>& query_cache() const { return cache_; }
  void set_query_cache(std::shared_ptr<QueryCache> cache) {
    XPWQO_CHECK(cache != nullptr);
    cache_ = std::move(cache);
  }

  /// Integrity verification hook: re-validates the engine's backing bytes
  /// (CRC sweep over the mapped index image for image-opened engines).
  /// Returns OK for engines without persistent backing — there is nothing
  /// to scrub. kCorruption means the backing storage changed under the
  /// mapping; the engine's answers are untrusted.
  Status Verify() const {
    return verifier_ ? verifier_() : Status::OK();
  }
  /// Installs the verifier (the persist image-open path does; core itself
  /// never depends on the persist layer).
  void set_verifier(std::function<Status()> verifier) {
    verifier_ = std::move(verifier);
  }

 private:
  Engine();
  Engine(Document doc, TreeBackend backend);
  /// Shared streamed-succinct load path of the FromXml* entry points.
  static StatusOr<Engine> LoadSuccinct(
      size_t input_bytes, std::shared_ptr<Alphabet> alphabet,
      const std::function<Status(Alphabet*, TreeEventSink*)>& parse);
  /// The plan `query` runs as here: null when it runs as is, the query
  /// cache's compilation of its canonical string when it is stale, and
  /// kInvalidArgument when it was prepared against another alphabet.
  StatusOr<std::shared_ptr<const PreparedQuery>> Bind(
      const PreparedQuery& query) const;
  internal::CursorContext Context() const;

  std::shared_ptr<Alphabet> alphabet_;
  /// Keeps the mapped index image alive for image-opened engines; the
  /// structures below read straight out of it, so it is declared first
  /// (destroyed last). Null for built engines.
  std::shared_ptr<const void> backing_;
  std::unique_ptr<Document> doc_;  // null on streaming-succinct loads
  std::unique_ptr<SuccinctTree> succinct_;  // null on the pointer backend
  std::unique_ptr<TreeIndex> index_;  // over succinct_ when configured
  /// Content layer for document-less engines (streamed succinct loads and
  /// image opens); null when doc_ carries the values.
  std::unique_ptr<TextStore> text_;
  /// LRU of string-compiled queries (internally locked). Shared with the
  /// owning Collection when there is one.
  std::shared_ptr<QueryCache> cache_;
  /// Backing-bytes re-validation, installed by the persist open path.
  std::function<Status()> verifier_;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_ENGINE_H_
