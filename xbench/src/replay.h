// The traced run's in-process replay: the first requests of the seeded
// stream, unloaded, through the public functions of each layer against the
// same saved images xpathd serves. Produces the per-layer metrics.
#ifndef XBENCH_REPLAY_H_
#define XBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "trace.h"
#include "workload.h"

namespace xbench {

/// Runs the replay and appends every per-layer metric it measures to
/// *metrics (name → value). `port` is the idle xpathd for the unloaded
/// HTTP round trips. Returns false (with *error) when an in-process or
/// HTTP answer disagrees with the oracle.
bool RunReplay(const Workload& workload, const Oracle& oracle,
               const std::string& images_dir, uint64_t seed, uint16_t port,
               SpanLog* spans, JsonObject* metrics, std::string* error);

}  // namespace xbench

#endif  // XBENCH_REPLAY_H_
