// Collection: many named documents behind one shared Alphabet — the
// multi-tenant serving shape. Documents load through the same streaming
// ingestion pipelines as a standalone Engine (pointer or succinct backend,
// per document), but intern their labels into the collection's alphabet, so
// a query prepared once binds to every document, including documents added
// after the query was prepared (a load that interns new labels makes a plan
// that depended on them stale, and the plan rebinds when it runs).
//
// Documents can also be registered *lazily* (AddLazy): the slot holds a
// loader instead of an engine, and the first query against the document —
// Get/Find/OpenCursor/RunAll — runs the loader. The persist layer registers
// saved index images this way, so opening a large collection costs one
// manifest read and each document's mmap happens on first touch. A loader
// failure (kCorruption/kIoError) surfaces through the querying call and the
// slot stays loadable, so a transient I/O error can be retried.
//
// Thread-safety contract: Prepare/PrepareCached may run concurrently with
// anything — compiling only reads the internally synchronized Alphabet;
// only loads intern. Registration (Add*/LoadAll/AddLazy) must not race with
// queries or other registrations. Queries (Run/RunAll/OpenCursor, lazy
// first touches included) are freely concurrent. No ordering rule remains
// between queries and lazy images: since no compile writes the alphabet, an
// AddLazy image without a MANIFEST lands its label ids verbatim however
// many queries ran first.
#ifndef XPWQO_CORE_COLLECTION_H_
#define XPWQO_CORE_COLLECTION_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"

namespace xpwqo {

/// One document's results in a collection-wide run.
struct CollectionResult {
  std::string name;
  QueryResult result;
};

/// Outcome of Collection::VerifyAll: one row per document that was actually
/// checked (loaded documents only — lazy slots that were never touched have
/// no mapped bytes to scrub).
struct VerifyReport {
  struct Row {
    std::string name;
    Status status;  // OK, or the kCorruption that quarantined the document
  };
  std::vector<Row> rows;
  size_t checked = 0;
  size_t quarantined = 0;  // newly quarantined by this sweep
};

class Collection {
 public:
  Collection() : alphabet_(std::make_shared<Alphabet>()) {}
  /// Adopts an existing alphabet (e.g. to share it beyond the collection).
  explicit Collection(std::shared_ptr<Alphabet> alphabet)
      : alphabet_(std::move(alphabet)) {}

  Collection(Collection&&) = default;
  Collection& operator=(Collection&&) = default;

  const std::shared_ptr<Alphabet>& alphabet_ptr() const { return alphabet_; }

  /// Loads a document under `name` (which must be new). `options.backend`
  /// picks the representation per document; `options.alphabet` is
  /// overridden with the collection's.
  Status AddXmlFile(std::string name, const std::string& path,
                    LoadOptions options = {});
  Status AddXmlString(std::string name, std::string_view xml,
                      LoadOptions options = {});

  /// One document of a bulk load: the name it registers under, the XML file
  /// to parse, and per-document load options (backend etc. — the alphabet is
  /// always overridden with the collection's).
  struct BulkLoadSpec {
    std::string name;
    std::string path;
    LoadOptions options;
  };

  /// Outcome of LoadAll: one row per spec, in spec order, each carrying the
  /// per-document load Status. A failed document never aborts the batch.
  struct BulkLoadReport {
    struct Row {
      std::string name;
      Status status;
    };
    std::vector<Row> rows;
    size_t loaded = 0;  // rows with an OK status (documents now queryable)
    size_t failed = 0;
  };

  /// Parallel bulk ingestion: parses the documents on up to `threads`
  /// worker threads (clamped to the spec count; 0 means the hardware
  /// concurrency) and registers every successfully parsed document. All
  /// parses intern through the collection's shared thread-safe Alphabet —
  /// interning is the only synchronized point between workers. Documents
  /// that fail (missing file, malformed XML, duplicate name) get their
  /// Status in the report and are skipped; the rest load normally.
  ///
  /// Safe to run concurrently with Prepare/PrepareCached — compilation
  /// only reads the thread-safe alphabet the workers intern into, and a
  /// plan compiled before a worker added its labels rebinds when it runs.
  /// Like Add*, registration must not race with queries or other
  /// registrations; the new documents become visible only after all
  /// workers finish, in spec order.
  BulkLoadReport LoadAll(const std::vector<BulkLoadSpec>& specs,
                         unsigned threads = 0);

  /// Loads an engine on demand, interning into the alphabet it is given
  /// (always the collection's).
  using LazyLoader =
      std::function<StatusOr<Engine>(std::shared_ptr<Alphabet>)>;

  /// Registers `name` (which must be new) to load through `loader` on
  /// first query. The persist layer composes these from saved index
  /// images; any deferred construction that can fail with a Status fits.
  Status AddLazy(std::string name, LazyLoader loader);

  /// Compiles a query against the shared alphabet, which it only reads;
  /// the result binds to every document of the collection, current and
  /// future. When a later load makes it stale (PreparedQuery::stale), each
  /// bind runs the shared query cache's recompilation instead.
  StatusOr<PreparedQuery> Prepare(std::string_view xpath) const {
    return PreparedQuery::Prepare(xpath, alphabet_);
  }

  /// Cache-through compilation against the collection's shared query cache:
  /// one compilation per query string per collection, whichever document it
  /// is later run on (a stale entry recompiles). Safe to call concurrently
  /// with anything, lazy first touches included.
  StatusOr<std::shared_ptr<const PreparedQuery>> PrepareCached(
      std::string_view xpath) const {
    return cache_->GetOrPrepare(xpath, alphabet_);
  }

  /// The shared compilation LRU (installed into every engine the collection
  /// creates); its hit/miss counters aggregate across the collection and
  /// feed the serving stats snapshot.
  const std::shared_ptr<QueryCache>& query_cache() const { return cache_; }

  /// The engine serving `name`, or null — for unknown names AND for lazy
  /// documents whose load fails (use Get for the load Status). Engine
  /// addresses are stable across later Add* calls.
  const Engine* Find(std::string_view name) const;
  /// Same, but a Status instead of null: NotFound for unknown names,
  /// kCorruption/kIoError when a lazy document fails to load.
  StatusOr<const Engine*> Get(std::string_view name) const;

  size_t size() const { return engines_.size(); }
  bool empty() const { return engines_.empty(); }
  /// Document names in insertion order.
  const std::vector<std::string>& names() const { return names_; }

  /// Opens a streaming cursor over one document's results.
  StatusOr<ResultCursor> OpenCursor(std::string_view name,
                                    const PreparedQuery& query,
                                    const QueryOptions& options = {}) const;

  /// String convenience: compiles through the shared query cache, then
  /// opens the cursor; the cursor keeps the compilation alive.
  StatusOr<ResultCursor> OpenCursor(std::string_view name,
                                    std::string_view xpath,
                                    const QueryOptions& options = {}) const;

  /// Runs a prepared query over every document, in insertion order.
  StatusOr<std::vector<CollectionResult>> RunAll(
      const PreparedQuery& query, const QueryOptions& options = {}) const;

  /// Background scrub: re-verifies every currently-loaded document's
  /// backing bytes (Engine::Verify — a CRC sweep over the mapped image for
  /// image-opened engines). A document that fails is *quarantined*: its
  /// engine object stays alive (queries already running against it are
  /// unaffected at the memory level, though their answers are untrusted),
  /// but Find returns null and Get/OpenCursor return the kCorruption from
  /// the failed check, while healthy documents keep serving. Untouched lazy
  /// slots are skipped — they have no mapped bytes yet. Safe to call
  /// concurrently with queries; it holds no lock while checksumming.
  VerifyReport VerifyAll() const;

  /// The quarantine Status for `name`: OK when healthy (or never checked),
  /// the failing kCorruption once VerifyAll quarantined it, NotFound for
  /// unknown names.
  Status Health(std::string_view name) const;

 private:
  /// Registers a loaded engine under `name` (already checked to be new)
  /// and wires it to the shared query cache; a failed load passes its
  /// Status through and registers nothing.
  Status Register(std::string name, StatusOr<Engine> loaded);
  /// Returns slot i's engine, running its lazy loader first if needed.
  /// Const because first-touch loading is observable only as latency; the
  /// lazy mutex serializes concurrent first touches.
  StatusOr<const Engine*> Ensure(size_t i) const;

  std::shared_ptr<Alphabet> alphabet_;
  std::shared_ptr<QueryCache> cache_ = std::make_shared<QueryCache>();
  std::vector<std::string> names_;  // insertion order
  // Parallel to names_. A slot is either loaded (engine set, loader empty)
  // or lazy (engine null, loader set); a failed lazy load keeps the loader
  // so the next touch retries.
  mutable std::vector<std::unique_ptr<Engine>> engines_;
  mutable std::vector<LazyLoader> loaders_;
  // Parallel to names_: OK, or the kCorruption that quarantined the slot.
  // Guarded by lazy_mu_ (reads and writes are cheap; the expensive CRC
  // sweep in VerifyAll runs outside the lock).
  mutable std::vector<Status> health_;
  std::unordered_map<std::string, size_t> by_name_;
  mutable std::unique_ptr<std::mutex> lazy_mu_ =
      std::make_unique<std::mutex>();
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_COLLECTION_H_
