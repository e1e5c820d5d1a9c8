// Load generation against a running xpathd: the gated closed-loop phase
// and the diagnostic open-loop phase. Every response is checked against
// the oracle; a failed or mismatching request counts as an error and as
// an infinitely slow sample.
#ifndef XBENCH_LOAD_H_
#define XBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace xbench {

struct LoadResult {
  /// One sample per attempted request, milliseconds; failures are +inf.
  std::vector<double> latency_ms;
  /// When each of those requests completed (NowNs), parallel to latency_ms.
  std::vector<int64_t> done_ns;
  int64_t attempted = 0;
  int64_t ok = 0;          // HTTP 200 and matching the oracle
  int64_t good = 0;        // ok and within the workload's latency limit
  int64_t non200 = 0;
  int64_t transport = 0;   // connect/send/receive failures
  int64_t mismatches = 0;  // 200 but different from the oracle
  double seconds = 0;      // phase wall time
  std::string first_error;
  /// Open loop only: how late each request was sent, milliseconds.
  std::vector<double> late_ms;
  int64_t errors() const { return non200 + transport + mismatches; }
};

/// Closed loop: `connections` threads, each with one persistent
/// connection, each sending its next request (stream c of the seed) only
/// after the previous reply arrived. Runs for `seconds`, extended (up to
/// twice as long) until at least `min_samples` requests completed. With
/// `spans` non-null, each thread records a span per request into its own
/// log, merged into *spans at the end. `tick`, when set, is called from
/// the calling thread at the start, at each of segments-1 equally spaced
/// boundaries within `seconds`, and at the end — segments+1 calls in all.
LoadResult RunClosedLoop(uint16_t port, const Workload& workload,
                         const Oracle& oracle, uint64_t seed,
                         int connections, double seconds,
                         int64_t min_samples, SpanLog* spans,
                         int segments = 1,
                         const std::function<void()>& tick = {});

/// Open loop: Poisson arrivals at `rate` per second for `seconds`. A
/// sender thread pipelines each request onto the less-loaded of two
/// connections at its due time; a receiver thread polls both. Latency is
/// timed from the due time, so a stalled sender shows up in the samples.
LoadResult RunOpenLoop(uint16_t port, const Workload& workload,
                       const Oracle& oracle, uint64_t seed, double rate,
                       double seconds);

/// GET path on a fresh connection; the reply body, or "" on failure.
std::string FetchBody(uint16_t port, const std::string& target);

/// The integer after `"key":` in a JSON body, or -1.
int64_t JsonField(const std::string& body, const std::string& key);

}  // namespace xbench

#endif  // XBENCH_LOAD_H_
