#include "core/engine.h"

#include <fstream>
#include <utility>

#include "index/label_index.h"
#include "index/succinct_builder.h"
#include "tree/event_sink.h"

namespace xpwqo {
namespace {

size_t FileSizeOrZero(const std::string& path) {
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  if (!probe) return 0;
  const auto size = probe.tellg();
  return size > 0 ? static_cast<size_t>(size) : 0;
}

}  // namespace

const char* TreeBackendName(TreeBackend backend) {
  switch (backend) {
    case TreeBackend::kPointer:
      return "pointer";
    case TreeBackend::kSuccinct:
      return "succinct";
  }
  return "?";
}

Engine::Engine() : cache_(std::make_shared<QueryCache>()) {}

Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

Engine::Engine(Document doc, TreeBackend backend) : Engine() {
  alphabet_ = doc.alphabet_ptr();
  doc_ = std::make_unique<Document>(std::move(doc));
  if (backend == TreeBackend::kSuccinct) {
    succinct_ = std::make_unique<SuccinctTree>(*doc_);
    index_ = std::make_unique<TreeIndex>(*succinct_);
  } else {
    index_ = std::make_unique<TreeIndex>(*doc_);
  }
}

StatusOr<Engine> Engine::LoadSuccinct(
    size_t input_bytes, std::shared_ptr<Alphabet> alphabet,
    const std::function<Status(Alphabet*, TreeEventSink*)>& parse) {
  // One parse feeds the parenthesis/label builder and the posting-list
  // builder side by side; no pointer Document exists at any point. The
  // fused sink (instead of a generic TeeSink) keeps the per-event cost to
  // one virtual dispatch: both builders are final, so their handlers inline
  // into the fused overrides.
  struct BuildSink final : TreeEventSink {
    SuccinctBuilder tree;
    LabelPostingsBuilder postings;
    TextStoreBuilder text;
    void BeginElement(LabelId label) override {
      tree.BeginElement(label);
      postings.BeginElement(label);
      text.AddNode();
    }
    void Attribute(LabelId label, std::string_view value) override {
      tree.Attribute(label, value);
      postings.Attribute(label, value);
      text.AddValue(value);
    }
    void Text(LabelId label, std::string_view content) override {
      tree.Text(label, content);
      postings.Text(label, content);
      text.AddValue(content);
    }
    void EndElement() override {
      tree.EndElement();
      postings.EndElement();
    }
  };
  if (alphabet == nullptr) alphabet = std::make_shared<Alphabet>();
  BuildSink sink;
  sink.tree.ReserveNodes(EstimateNodesFromBytes(input_bytes));
  sink.text.ReserveForInput(input_bytes);
  XPWQO_RETURN_IF_ERROR(parse(alphabet.get(), &sink));
  Engine engine;
  engine.alphabet_ = std::move(alphabet);
  XPWQO_ASSIGN_OR_RETURN(engine.succinct_, std::move(sink.tree).Finish());
  engine.index_ = std::make_unique<TreeIndex>(
      *engine.succinct_, LabelIndex(std::move(sink.postings)));
  engine.text_ = std::make_unique<TextStore>(std::move(sink.text).Finish());
  return engine;
}

StatusOr<Engine> Engine::FromXmlFile(const std::string& path,
                                     const LoadOptions& options) {
  if (options.backend == TreeBackend::kSuccinct) {
    return LoadSuccinct(
        FileSizeOrZero(path), options.alphabet,
        [&path, &options](Alphabet* alphabet, TreeEventSink* sink) {
          return ParseXmlFileEvents(path, options.parse, alphabet, sink);
        });
  }
  XPWQO_ASSIGN_OR_RETURN(Document doc,
                         ParseXmlFile(path, options.parse, options.alphabet));
  return Engine(std::move(doc), TreeBackend::kPointer);
}

StatusOr<Engine> Engine::FromXmlString(std::string_view xml,
                                       const LoadOptions& options) {
  if (options.backend == TreeBackend::kSuccinct) {
    return LoadSuccinct(
        xml.size(), options.alphabet,
        [xml, &options](Alphabet* alphabet, TreeEventSink* sink) {
          return ParseXmlEvents(xml, options.parse, alphabet, sink);
        });
  }
  XPWQO_ASSIGN_OR_RETURN(
      Document doc, ParseXmlString(xml, options.parse, options.alphabet));
  return Engine(std::move(doc), TreeBackend::kPointer);
}

StatusOr<Engine> Engine::FromXmlFile(const std::string& path,
                                     TreeBackend backend) {
  LoadOptions options;
  options.backend = backend;
  return FromXmlFile(path, options);
}

StatusOr<Engine> Engine::FromXmlString(std::string_view xml,
                                       TreeBackend backend) {
  LoadOptions options;
  options.backend = backend;
  return FromXmlString(xml, options);
}

Engine Engine::FromDocument(Document doc, TreeBackend backend) {
  return Engine(std::move(doc), backend);
}

Engine Engine::FromImageParts(std::shared_ptr<Alphabet> alphabet,
                              std::unique_ptr<SuccinctTree> tree,
                              LabelIndex labels,
                              std::unique_ptr<TextStore> text,
                              std::shared_ptr<const void> backing) {
  XPWQO_CHECK(text != nullptr);
  Engine engine;
  engine.alphabet_ = std::move(alphabet);
  engine.backing_ = std::move(backing);
  engine.succinct_ = std::move(tree);
  engine.index_ = std::make_unique<TreeIndex>(*engine.succinct_,
                                              std::move(labels));
  engine.text_ = std::move(text);
  return engine;
}

std::string Engine::PathTo(NodeId n) const {
  std::vector<NodeId> chain;
  for (NodeId cur = n; cur != kNullNode; cur = index_->Parent(cur)) {
    chain.push_back(cur);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out += "/";
    out += alphabet_->Name(index_->Label(*it));
  }
  return out.empty() ? "/" : out;
}

namespace {

/// The succinct backend (tree topology + alphabet names + TextStore
/// values) through the serializer's backend-neutral view.
class SuccinctXmlSource final : public XmlNodeSource {
 public:
  SuccinctXmlSource(const SuccinctTree& tree, const Alphabet& alphabet,
                    const TextStore& text)
      : tree_(tree), alphabet_(alphabet), text_(text) {}
  NodeId Root() const override { return tree_.root(); }
  NodeId FirstChild(NodeId n) const override { return tree_.first_child(n); }
  NodeId NextSibling(NodeId n) const override {
    return tree_.next_sibling(n);
  }
  const std::string& Name(NodeId n) const override {
    return alphabet_.Name(tree_.label(n));
  }
  std::string_view Value(NodeId n) const override { return text_.Value(n); }

 private:
  const SuccinctTree& tree_;
  const Alphabet& alphabet_;
  const TextStore& text_;
};

}  // namespace

std::string Engine::SerializeSubtree(NodeId n,
                                     const XmlSerializeOptions& options) const {
  if (doc_ != nullptr) return SerializeXml(*doc_, options, n);
  return SerializeXml(SuccinctXmlSource(*succinct_, *alphabet_, *text_),
                      options, n);
}

IndexMemoryReport Engine::IndexMemory() const {
  IndexMemoryReport report;
  const LabelIndex::MemoryStats postings = index_->labels().Memory();
  report.label_index_bytes = postings.bytes;
  report.label_index_vector_bytes = postings.vector_bytes;
  report.dense_labels = postings.dense_labels;
  report.sparse_labels = postings.sparse_labels;
  report.tree_bytes = succinct_ != nullptr ? succinct_->MemoryUsage()
                                           : doc_->MemoryUsage();
  report.text_store_bytes = text_ != nullptr ? text_->MemoryUsage() : 0;
  return report;
}

StatusOr<PreparedQuery> Engine::Compile(std::string_view xpath) const {
  return PreparedQuery::Prepare(xpath, alphabet_);
}

internal::CursorContext Engine::Context() const {
  internal::CursorContext ctx;
  ctx.index = index_.get();
  ctx.text = text_.get();
  ctx.doc = doc_.get();
  return ctx;
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Bind(
    const PreparedQuery& query) const {
  if (query.alphabet_ptr() != alphabet_) {
    return Status::InvalidArgument(
        "query was prepared against a different alphabet; prepare it "
        "through this engine (or its collection)");
  }
  if (!query.stale()) return std::shared_ptr<const PreparedQuery>();
  return cache_->GetOrPrepare(query.ToString(), alphabet_);
}

StatusOr<ResultCursor> Engine::OpenCursor(const PreparedQuery& query,
                                          const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> rebound,
                         Bind(query));
  // Taken before `rebound` moves into the cursor (argument order is
  // unspecified).
  const PreparedQuery& bound = rebound ? *rebound : query;
  return internal::OpenCursor(Context(), bound, options, std::move(rebound));
}

StatusOr<ResultCursor> Engine::OpenCursor(std::string_view xpath,
                                          const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         cache_->GetOrPrepare(xpath, alphabet_));
  return OpenCursor(std::move(query), options);
}

StatusOr<ResultCursor> Engine::OpenCursor(
    std::shared_ptr<const PreparedQuery> query,
    const QueryOptions& options) const {
  if (query == nullptr) {
    return Status::InvalidArgument("OpenCursor requires a non-null query");
  }
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> rebound,
                         Bind(*query));
  if (rebound != nullptr) query = std::move(rebound);
  const PreparedQuery& bound = *query;  // before `query` moves
  return internal::OpenCursor(Context(), bound, options, std::move(query),
                              cache_->hits());
}

StatusOr<QueryResult> Engine::Run(const PreparedQuery& query,
                                  const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor, OpenCursor(query, options));
  QueryResult out;
  out.nodes = cursor.Drain();
  XPWQO_RETURN_IF_ERROR(cursor.status());
  const CursorStats stats = cursor.TakeStats();
  out.stats = stats.eval;
  out.hybrid = stats.hybrid;
  out.used_hybrid = stats.used_hybrid;
  return out;
}

StatusOr<QueryResult> Engine::Run(std::string_view xpath,
                                  const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         cache_->GetOrPrepare(xpath, alphabet_));
  StatusOr<QueryResult> result = Run(*query, options);
  if (result.ok()) result->stats.query_cache_hits = cache_->hits();
  return result;
}

StatusOr<bool> Engine::Exists(const PreparedQuery& query,
                              const QueryOptions& options,
                              CursorStats* stats) const {
  // One streaming Next() is the LIMIT-1 pushdown: jumping cursors stop at
  // the first selected node instead of sweeping the document.
  XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor, OpenCursor(query, options));
  const NodeId first = cursor.Next();
  XPWQO_RETURN_IF_ERROR(cursor.status());
  if (stats != nullptr) *stats = cursor.TakeStats();
  return first != kNullNode;
}

StatusOr<bool> Engine::Exists(std::string_view xpath,
                              const QueryOptions& options,
                              CursorStats* stats) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         cache_->GetOrPrepare(xpath, alphabet_));
  return Exists(*query, options, stats);
}

StatusOr<size_t> Engine::Count(const PreparedQuery& query,
                               const QueryOptions& options,
                               CursorStats* stats) const {
  XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor, OpenCursor(query, options));
  size_t count = 0;
  for (NodeId n = cursor.Next(); n != kNullNode; n = cursor.Next()) ++count;
  XPWQO_RETURN_IF_ERROR(cursor.status());
  if (stats != nullptr) *stats = cursor.TakeStats();
  return count;
}

StatusOr<size_t> Engine::Count(std::string_view xpath,
                               const QueryOptions& options,
                               CursorStats* stats) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         cache_->GetOrPrepare(xpath, alphabet_));
  return Count(*query, options, stats);
}

}  // namespace xpwqo
