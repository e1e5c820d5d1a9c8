#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "baseline/nodeset_eval.h"
#include "common.h"
#include "core/engine.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xbench {
namespace {

// sweep: the paper's Figure-2 queries except Q01 and Q10 (each ~30 us, so
// they would only dilute the evaluation cost), then bench_net's eight
// //a//b queries. Q05 and the first bench_net query are the same string,
// so the 21-entry mix has 20 distinct strings; all fit the 32-entry
// QueryCache.
constexpr const char* kSweepMix[] = {
    "/site/regions/europe/item/mailbox/mail/text/keyword",
    "/site/closed_auctions/closed_auction/annotation/description/parlist/"
    "listitem",
    "/site/regions/*/item",
    "//listitem//keyword",
    "/site/regions/*/item//keyword",
    "/site/people/person[ address and (phone or homepage) ]",
    "//listitem[ .//keyword and .//emph ]//parlist",
    "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail",
    "/site//keyword",
    "/site[ .//keyword ]//keyword",
    "/site[ .//keyword or .//keyword/emph ]//keyword",
    "/site[ .//keyword//emph ]/descendant::keyword",
    "/site[ .//*//* ]//keyword",
    "//listitem//keyword",
    "//keyword",
    "//parlist//listitem",
    "//mailbox//mail",
    "//annotation//description",
    "//person//homepage",
    "//text//emph",
    "//item//mailbox",
};

// browse: every ancestor//descendant element-label pair of the XMark
// regions subtree (region//item plus the pairs below item), so each pair
// has matches early in document order and LIMIT-k stops after a sliver of
// the shard.
constexpr const char* kRegions[] = {"africa",  "asia",     "australia",
                                    "europe",  "namerica", "samerica"};
constexpr const char* kItemDescendants[] = {
    "location", "quantity", "name",    "payment", "description", "shipping",
    "incategory", "mailbox", "mail",   "from",    "to",          "date",
    "text",     "keyword",  "emph",    "bold",    "parlist",     "listitem"};
struct PairGroup {
  const char* ancestor;
  std::vector<const char*> descendants;
};
const std::vector<PairGroup>& InnerPairs() {
  static const std::vector<PairGroup> groups = {
      {"description",
       {"text", "keyword", "emph", "bold", "parlist", "listitem"}},
      {"parlist", {"listitem", "parlist", "text", "keyword", "emph", "bold"}},
      {"listitem", {"parlist", "listitem", "text", "keyword", "emph", "bold"}},
      {"text", {"keyword", "emph", "bold"}},
      {"keyword", {"emph"}},
      {"mailbox",
       {"mail", "from", "to", "date", "text", "keyword", "emph", "bold"}},
      {"mail", {"from", "to", "date", "text", "keyword", "emph", "bold"}},
  };
  return groups;
}
// One browse request in 16 names a label no XMark document has: it misses
// the cache, interns a new label into the server's alphabet, and must
// return nothing.
constexpr int kAbsentLabels = 16;

constexpr const char* kLookupKinds[] = {"person", "item", "open_auction"};
// lookup: a seeded pool of distinct ids, each bound to one shard. Against
// the 32-entry QueryCache, uniform picks from 1024 strings miss ~97% of
// the time; the pool (rather than all ~3,000 ids on all 8 shards) keeps
// the oracle's predicate evaluations, ~9 ms each, to a few seconds.
constexpr int kLookupPool = 1024;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

std::string PercentEncode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

xpwqo::Engine LoadPointer(const Shard& shard) {
  auto engine =
      xpwqo::Engine::FromXmlFile(shard.path, xpwqo::TreeBackend::kPointer);
  if (!engine.ok()) {
    Fatal("oracle load " + shard.path + ": " + engine.status().ToString());
  }
  return std::move(engine).value();
}

// The baseline evaluator (what EvalStrategy::kBaseline runs) straight on
// the pointer Document: no automaton compilation, which the oracle does
// not need.
std::vector<xpwqo::NodeId> Baseline(const xpwqo::Engine& engine,
                                    const std::string& query) {
  auto result = xpwqo::EvalNodeSetBaseline(query, engine.document());
  if (!result.ok()) {
    Fatal("oracle run " + query + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// A small cursor over a response body, just enough JSON for the server's
// fixed row format.
class BodyReader {
 public:
  explicit BodyReader(const std::string& body) : s_(body) {}
  bool Expect(std::string_view token) {
    if (s_.compare(pos_, token.size(), token) != 0) return false;
    pos_ += token.size();
    return true;
  }
  // Reads a JSON string body up to its closing quote (the opening quote
  // already consumed); escapes are kept undecoded.
  bool String(std::string* out) {
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\' && pos_ < s_.size()) out->push_back(s_[pos_++]);
      else out->push_back(c);
    }
    return false;
  }
  bool Int(int64_t* out) {
    const size_t start = pos_;
    int64_t v = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      v = v * 10 + (s_[pos_++] - '0');
    }
    *out = v;
    return pos_ > start;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Corpus GenerateCorpus(uint64_t seed, const std::string& dir) {
  Corpus corpus;
  corpus.shards.resize(kShards);
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < std::min<unsigned>(hw, 4); ++t) {
    threads.emplace_back([&] {
      for (int i = next++; i < kShards; i = next++) {
        xpwqo::XMarkOptions options;
        options.scale = kShardScale;
        options.seed = Mix64(seed * kShards + static_cast<uint64_t>(i));
        Shard& shard = corpus.shards[i];
        shard.name = "shard" + std::to_string(i);
        shard.path = dir + "/" + shard.name + ".xml";
        const std::string xml = xpwqo::SerializeXml(xpwqo::GenerateXMark(options));
        std::FILE* f = std::fopen(shard.path.c_str(), "wb");
        if (f == nullptr || std::fwrite(xml.data(), 1, xml.size(), f) != xml.size() ||
            std::fclose(f) != 0) {
          Fatal("cannot write " + shard.path);
        }
        shard.bytes = static_cast<int64_t>(xml.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Shard& s : corpus.shards) corpus.xml_bytes += s.bytes;
  return corpus;
}

bool MakeWorkload(const std::string& name, uint64_t seed,
                  const int id_counts[3], Workload* out) {
  Workload w;
  w.name = name;
  if (name == "sweep") {
    for (const char* q : kSweepMix) {
      auto it = std::find(w.queries.begin(), w.queries.end(), q);
      w.sweep_mix.push_back(static_cast<int>(it - w.queries.begin()));
      if (it == w.queries.end()) w.queries.push_back(q);
    }
    w.offered_rate = 25;
    w.latency_limit_ms = 250;
    w.replay_requests = 48;
  } else if (name == "browse") {
    for (const char* region : kRegions) {
      w.queries.push_back(std::string("//") + region + "//item");
    }
    for (const char* d : kItemDescendants) {
      w.queries.push_back(std::string("//item//") + d);
    }
    for (const PairGroup& g : InnerPairs()) {
      for (const char* d : g.descendants) {
        w.queries.push_back(std::string("//") + g.ancestor + "//" + d);
      }
    }
    w.num_pairs = static_cast<int>(w.queries.size());
    for (int i = 0; i < kAbsentLabels; ++i) {
      w.queries.push_back("//item//absent_label_" + std::to_string(i));
    }
    w.offered_rate = 3500;
    w.latency_limit_ms = 25;
    w.replay_requests = 2048;
  } else if (name == "lookup") {
    std::vector<std::string> ids;
    for (int k = 0; k < 3; ++k) {
      for (int i = 0; i < id_counts[k]; ++i) {
        ids.push_back(std::string("//") + kLookupKinds[k] + "[@id='" +
                      kLookupKinds[k] + std::to_string(i) + "']");
      }
    }
    // A uniform sample without replacement (partial Fisher-Yates).
    xpwqo::Random rng(Mix64(seed ^ HashName("lookup-pool")));
    const size_t pool = std::min<size_t>(kLookupPool, ids.size());
    for (size_t i = 0; i < pool; ++i) {
      std::swap(ids[i], ids[i + rng.Uniform(ids.size() - i)]);
      w.queries.push_back(ids[i]);
      w.query_shard.push_back(static_cast<int>(rng.Uniform(kShards)));
    }
    w.offered_rate = 600;
    w.latency_limit_ms = 25;
    w.replay_requests = 512;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

Request Workload::Next(RequestStream* stream) const {
  xpwqo::Random* rng = &stream->rng;
  Request r;
  if (!sweep_mix.empty()) {
    std::vector<int>& deck = stream->deck;
    if (deck.empty()) {
      deck = sweep_mix;
      for (size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng->Uniform(i + 1)]);
      }
    }
    r.query = deck.back();
    deck.pop_back();
  } else if (num_pairs > 0) {
    r.shard = static_cast<int>(rng->Uniform(kShards));
    r.limit = static_cast<int>(rng->UniformInt(1, 10));
    r.query = rng->Uniform(16) == 0
                  ? num_pairs + static_cast<int>(rng->Uniform(kAbsentLabels))
                  : static_cast<int>(rng->Uniform(num_pairs));
  } else {
    r.query = static_cast<int>(rng->Uniform(queries.size()));
    r.shard = query_shard[r.query];
  }
  return r;
}

xpwqo::Random SeededRandom(uint64_t seed, const std::string& workload,
                           int stream) {
  return xpwqo::Random(Mix64(seed ^ HashName(workload)) +
                       static_cast<uint64_t>(stream) * 0x632be59bd9b4e019ull);
}

std::string RequestTarget(const Workload& workload, const Request& request) {
  std::string target = "/query?q=" + PercentEncode(workload.queries[request.query]);
  if (request.shard >= 0) target += "&doc=shard" + std::to_string(request.shard);
  if (request.limit >= 0) target += "&limit=" + std::to_string(request.limit);
  return target;
}

void CountIds(const Corpus& corpus, int id_counts[3]) {
  const xpwqo::Engine engine = LoadPointer(corpus.shards[0]);
  for (int k = 0; k < 3; ++k) {
    id_counts[k] = static_cast<int>(
        Baseline(engine, std::string("//") + kLookupKinds[k]).size());
  }
}

Oracle BuildOracle(const Corpus& corpus, const Workload& workload,
                   int threads) {
  const Clock::time_point t0 = Clock::now();
  Oracle oracle;
  oracle.expected.assign(workload.queries.size(),
                         std::vector<std::vector<xpwqo::NodeId>>(kShards));
  // One pointer engine (with its private alphabet) per shard, each owned
  // by the one thread that evaluates it.
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (int s = next++; s < kShards; s = next++) {
        const xpwqo::Engine engine = LoadPointer(corpus.shards[s]);
        for (size_t q = 0; q < workload.queries.size(); ++q) {
          if (workload.query_shard.empty() || workload.query_shard[q] == s) {
            oracle.expected[q][s] = Baseline(engine, workload.queries[q]);
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  oracle.build_seconds = SecondsSince(t0);
  return oracle;
}

Check CheckResponse(const Workload& workload, const Oracle& oracle,
                    const Request& request, const std::string& body) {
  Check check;
  BodyReader in(body);
  std::string text;
  if (!in.Expect("{\"query\":\"") || !in.String(&text) ||
      !in.Expect(",\"documents\":[")) {
    check.why = "malformed response head";
    return check;
  }
  if (text != workload.queries[request.query]) {
    check.why = "response echoes another query: " + text;
    return check;
  }
  const int first = request.shard < 0 ? 0 : request.shard;
  const int count = request.shard < 0 ? kShards : 1;
  std::vector<xpwqo::NodeId> nodes;
  for (int i = 0; i < count; ++i) {
    const int s = first + i;
    int64_t v = 0;
    if ((i > 0 && !in.Expect(",")) || !in.Expect("{\"name\":\"") ||
        !in.String(&text)) {
      check.why = "malformed row";
      return check;
    }
    if (text != "shard" + std::to_string(s)) {
      check.why = "row for " + text + ", expected shard" + std::to_string(s);
      return check;
    }
    if (!in.Expect(",\"status\":\"") || !in.String(&text) || text != "OK") {
      check.why = "row status " + text;
      return check;
    }
    if (!in.Expect(",\"nodes\":[")) {
      check.why = "malformed nodes";
      return check;
    }
    nodes.clear();
    while (in.Peek() != ']') {
      if ((!nodes.empty() && !in.Expect(",")) || !in.Int(&v)) {
        check.why = "malformed node id";
        return check;
      }
      nodes.push_back(static_cast<xpwqo::NodeId>(v));
    }
    if (!in.Expect("],\"visited\":") || !in.Int(&v) || !in.Expect("}")) {
      check.why = "malformed row tail";
      return check;
    }
    const std::vector<xpwqo::NodeId>& expected = oracle.expected[request.query][s];
    const size_t want =
        request.limit < 0 ? expected.size()
                          : std::min(expected.size(), static_cast<size_t>(request.limit));
    if (nodes.size() != want ||
        !std::equal(nodes.begin(), nodes.end(), expected.begin())) {
      check.why = "shard" + std::to_string(s) + ": " +
                  std::to_string(nodes.size()) + " nodes, oracle prefix of " +
                  std::to_string(want) + " differs";
      return check;
    }
  }
  if (!in.Expect("],\"status\":\"OK\"")) {
    check.why = "extra rows or non-OK job status";
    return check;
  }
  check.ok = true;
  return check;
}

}  // namespace xbench
