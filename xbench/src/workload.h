// The benchmark's inputs: the seeded XMark corpus, the three request mixes
// and the baseline-evaluator oracle every response is checked against.
#ifndef XBENCH_WORKLOAD_H_
#define XBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tree/types.h"
#include "util/random.h"

namespace xbench {

constexpr int kShards = 8;
constexpr double kShardScale = 0.05;

struct Shard {
  std::string name;  // "shard0".."shard7", the xpathd document name
  std::string path;  // XML file
  int64_t bytes = 0;
};

struct Corpus {
  std::vector<Shard> shards;
  int64_t xml_bytes = 0;
};

/// Writes the kShards XMark shards under `dir` (created by the caller).
/// Shard i's generator seed is derived from `seed` and i, so one benchmark
/// seed fixes every byte of the corpus.
Corpus GenerateCorpus(uint64_t seed, const std::string& dir);

/// One request: a query of the workload's distinct-string table, on one
/// shard or on all (shard < 0), with an optional result limit (< 0: none).
struct Request {
  int query = 0;
  int shard = -1;
  int limit = -1;
};

struct RequestStream;

struct Workload {
  std::string name;
  /// Distinct query strings; Request::query indexes this table.
  std::vector<std::string> queries;
  /// Open-loop offered rate (requests/s, diagnostic phase only).
  double offered_rate = 0;
  /// Client latency limit: a response slower than this does not count
  /// toward capacity_qps.
  double latency_limit_ms = 0;
  /// Requests replayed in-process by the traced run.
  int replay_requests = 0;
  /// Draws the next request of one seeded stream.
  Request Next(RequestStream* stream) const;

  /// The one shard each query is sent to, or empty when any shard may be
  /// (lookup binds each pooled id to one shard; the oracle then needs only
  /// that pair).
  std::vector<int> query_shard;

  // Mix parameters (see workload.cc).
  std::vector<int> sweep_mix;   // sweep: query index per mix entry
  int num_pairs = 0;            // browse: queries [0, num_pairs) are pairs
};

/// The workload named `name` ("sweep", "browse", "lookup"). Lookup draws
/// its id pool with `seed` from the ids in `id_counts` (persons, items,
/// open auctions per shard). Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed,
                  const int id_counts[3], Workload* out);

/// Random source number `stream` of a run with benchmark seed `seed`:
/// connection c of the closed loop draws its requests from stream c (the
/// traced replay repeats stream 0); the open loop uses streams 100+.
xpwqo::Random SeededRandom(uint64_t seed, const std::string& workload,
                           int stream);

/// One seeded request sequence. sweep deals its 21-entry mix from a
/// shuffled deck, so every 21 requests carry each entry exactly once and a
/// run's mix never drifts from the intended proportions.
struct RequestStream {
  RequestStream(uint64_t seed, const std::string& workload, int stream)
      : rng(SeededRandom(seed, workload, stream)) {}
  xpwqo::Random rng;
  std::vector<int> deck;  // sweep: mix entries left in this round
};

/// "/query?q=...&doc=...&limit=..." for `request`.
std::string RequestTarget(const Workload& workload, const Request& request);

/// Expected node ids per (query, shard), computed with the baseline
/// evaluator (EvalStrategy::kBaseline) over pointer-backend loads of the
/// same XML — an evaluator that shares no plan with the served engine.
struct Oracle {
  std::vector<std::vector<std::vector<xpwqo::NodeId>>> expected;  // [q][s]
  double build_seconds = 0;
};

/// Counts persons, items and open auctions of shard 0 (every shard of one
/// scale has the same id ranges).
void CountIds(const Corpus& corpus, int id_counts[3]);

Oracle BuildOracle(const Corpus& corpus, const Workload& workload,
                   int threads);

/// Verdict for one response body against the oracle.
struct Check {
  bool ok = false;
  std::string why;  // first mismatch, for the error log
};
Check CheckResponse(const Workload& workload, const Oracle& oracle,
                    const Request& request, const std::string& body);

}  // namespace xbench

#endif  // XBENCH_WORKLOAD_H_
