// In-memory spans for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer of the program; they
// stay in memory until the run ends and are then written out in one go,
// so recording costs two clock reads and a vector append.
#ifndef XBENCH_TRACE_H_
#define XBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace xbench {

struct Span {
  int64_t request = -1;  // request id (-1: not part of a request)
  const char* name = "";
  int32_t id = 0;
  int32_t parent = -1;  // index into the same log, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<const char*, int64_t>> counts;
};

/// One thread's spans. Logs of several threads merge with Append.
class SpanLog {
 public:
  int32_t Begin(int64_t request, const char* name, int32_t parent = -1) {
    Span s;
    s.request = request;
    s.name = name;
    s.id = static_cast<int32_t>(spans_.size());
    s.parent = parent;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }
  /// A span whose interval was measured by the caller.
  int32_t Record(int64_t request, const char* name, int32_t parent,
                 int64_t start_ns, int64_t end_ns) {
    const int32_t id = Begin(request, name, parent);
    spans_[id].start_ns = start_ns;
    spans_[id].end_ns = end_ns;
    return id;
  }
  void Count(int32_t id, const char* name, int64_t value) {
    spans_[id].counts.emplace_back(name, value);
  }
  /// Moves `other`'s spans in, renumbering ids and parents.
  void Append(SpanLog&& other);

  /// Per span name: count, median duration and median self time (the
  /// span minus the union of its children's intervals), as a JSON object.
  std::string SummaryJson() const;
  /// Writes one JSON line per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span that does nothing when the log is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int64_t request, const char* name,
             int32_t parent = -1)
      : log_(log), id_(log ? log->Begin(request, name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }
  void Count(const char* name, int64_t value) {
    if (log_) log_->Count(id_, name, value);
  }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace xbench

#endif  // XBENCH_TRACE_H_
