#include "core/collection.h"

#include <atomic>
#include <thread>
#include <utility>

namespace xpwqo {
namespace {

Status DuplicateName(const std::string& name) {
  return Status::InvalidArgument("collection already has a document named '" +
                                 name + "'");
}

}  // namespace

Status Collection::AddXmlFile(std::string name, const std::string& path,
                              LoadOptions options) {
  if (by_name_.count(name) > 0) return DuplicateName(name);
  options.alphabet = alphabet_;
  return Register(std::move(name), Engine::FromXmlFile(path, options));
}

Status Collection::AddXmlString(std::string name, std::string_view xml,
                                LoadOptions options) {
  if (by_name_.count(name) > 0) return DuplicateName(name);
  options.alphabet = alphabet_;
  return Register(std::move(name), Engine::FromXmlString(xml, options));
}

Collection::BulkLoadReport Collection::LoadAll(
    const std::vector<BulkLoadSpec>& specs, unsigned threads) {
  BulkLoadReport report;
  report.rows.resize(specs.size());
  if (specs.empty()) return report;

  // Pre-flight serially: duplicate names (against the collection AND within
  // the batch) fail their row before any worker starts, so workers never
  // contend for a name.
  std::vector<StatusOr<Engine>> parsed;
  std::vector<bool> admitted(specs.size(), false);
  parsed.reserve(specs.size());
  std::unordered_map<std::string, size_t> batch_names;
  for (size_t i = 0; i < specs.size(); ++i) {
    report.rows[i].name = specs[i].name;
    parsed.emplace_back(Status::Internal("not parsed"));
    if (by_name_.count(specs[i].name) > 0 ||
        !batch_names.emplace(specs[i].name, i).second) {
      report.rows[i].status = DuplicateName(specs[i].name);
      continue;
    }
    admitted[i] = true;
  }

  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<size_t>(threads, specs.size()));

  // Fan out: each worker claims the next unparsed spec and parses it into
  // its slot. Workers share nothing but the alphabet (internally
  // synchronized) — per-document builders, parsers, and result slots are
  // worker-private, so a malformed shard fails only its own row.
  std::atomic<size_t> next{0};
  auto work = [&] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      if (!admitted[i]) continue;
      LoadOptions options = specs[i].options;
      options.alphabet = alphabet_;
      parsed[i] = Engine::FromXmlFile(specs[i].path, options);
    }
  };
  if (threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  // Merge serially, in spec order, so registration order (and therefore
  // names()/RunAll order) is deterministic regardless of which worker
  // finished first.
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!admitted[i]) continue;
    report.rows[i].status = Register(specs[i].name, std::move(parsed[i]));
  }
  for (const BulkLoadReport::Row& row : report.rows) {
    if (row.status.ok()) {
      ++report.loaded;
    } else {
      ++report.failed;
    }
  }
  return report;
}

Status Collection::Register(std::string name, StatusOr<Engine> loaded) {
  XPWQO_RETURN_IF_ERROR(loaded.status());
  loaded->set_query_cache(cache_);
  by_name_.emplace(name, engines_.size());
  names_.push_back(std::move(name));
  engines_.push_back(std::make_unique<Engine>(std::move(loaded).value()));
  loaders_.emplace_back();
  health_.emplace_back();
  return Status::OK();
}

Status Collection::AddLazy(std::string name, LazyLoader loader) {
  if (by_name_.count(name) > 0) return DuplicateName(name);
  if (!loader) {
    return Status::InvalidArgument("AddLazy requires a loader for '" + name +
                                   "'");
  }
  by_name_.emplace(name, engines_.size());
  names_.push_back(std::move(name));
  engines_.emplace_back();  // loads on first touch
  loaders_.push_back(std::move(loader));
  health_.emplace_back();
  return Status::OK();
}

StatusOr<const Engine*> Collection::Ensure(size_t i) const {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  if (!health_[i].ok()) return health_[i];
  if (engines_[i] != nullptr) return engines_[i].get();
  XPWQO_ASSIGN_OR_RETURN(Engine engine, loaders_[i](alphabet_));
  engine.set_query_cache(cache_);
  engines_[i] = std::make_unique<Engine>(std::move(engine));
  loaders_[i] = nullptr;  // the closed-over image bytes can go
  return engines_[i].get();
}

const Engine* Collection::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  StatusOr<const Engine*> engine = Ensure(it->second);
  return engine.ok() ? *engine : nullptr;
}

StatusOr<const Engine*> Collection::Get(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no document named '" + std::string(name) +
                            "' in the collection");
  }
  return Ensure(it->second);
}

StatusOr<ResultCursor> Collection::OpenCursor(
    std::string_view name, const PreparedQuery& query,
    const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(const Engine* engine, Get(name));
  return engine->OpenCursor(query, options);
}

StatusOr<ResultCursor> Collection::OpenCursor(
    std::string_view name, std::string_view xpath,
    const QueryOptions& options) const {
  XPWQO_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> query,
                         PrepareCached(xpath));
  XPWQO_ASSIGN_OR_RETURN(const Engine* engine, Get(name));
  return engine->OpenCursor(std::move(query), options);
}

StatusOr<std::vector<CollectionResult>> Collection::RunAll(
    const PreparedQuery& query, const QueryOptions& options) const {
  std::vector<CollectionResult> out;
  out.reserve(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    CollectionResult row;
    row.name = names_[i];
    XPWQO_ASSIGN_OR_RETURN(const Engine* engine, Ensure(i));
    XPWQO_ASSIGN_OR_RETURN(row.result, engine->Run(query, options));
    out.push_back(std::move(row));
  }
  return out;
}

VerifyReport Collection::VerifyAll() const {
  // Snapshot the loaded, healthy slots under the lock; the expensive CRC
  // sweeps run outside it so queries keep flowing. Engine objects are
  // stable (the unique_ptrs never reseat once loaded) and quarantine never
  // destroys them, so the borrowed pointers stay valid.
  struct Candidate {
    size_t index;
    const Engine* engine;
  };
  std::vector<Candidate> candidates;
  VerifyReport report;
  {
    std::lock_guard<std::mutex> lock(*lazy_mu_);
    for (size_t i = 0; i < engines_.size(); ++i) {
      if (!health_[i].ok()) {
        // Already quarantined: report it, but don't re-scrub — corruption
        // under a live mapping is not recoverable in place.
        report.rows.push_back({names_[i], health_[i]});
        continue;
      }
      if (engines_[i] == nullptr) continue;  // untouched lazy slot
      candidates.push_back({i, engines_[i].get()});
    }
  }
  for (const Candidate& c : candidates) {
    Status status = c.engine->Verify();
    ++report.checked;
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(*lazy_mu_);
      if (health_[c.index].ok()) {
        health_[c.index] = status;
        ++report.quarantined;
      }
    }
    report.rows.push_back({names_[c.index], std::move(status)});
  }
  return report;
}

Status Collection::Health(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no document named '" + std::string(name) +
                            "' in the collection");
  }
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  return health_[it->second];
}

}  // namespace xpwqo
