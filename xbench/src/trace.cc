#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace xbench {

void SpanLog::Append(SpanLog&& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span& s : other.spans_) {
    s.id += base;
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
}

std::string SpanLog::SummaryJson() const {
  // Children per parent, to subtract covered time.
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back(s.id);
  }
  struct Acc {
    std::vector<double> dur_us;
    std::vector<double> self_us;
  };
  std::map<std::string_view, Acc> by_name;
  for (const Span& s : spans_) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const int32_t c : children[s.id]) {
      iv.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                      std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const int64_t dur = s.end_ns - s.start_ns;
    Acc& acc = by_name[s.name];
    acc.dur_us.push_back(dur / 1e3);
    acc.self_us.push_back((dur - covered) / 1e3);
  }
  JsonObject out;
  for (auto& [name, acc] : by_name) {
    double total_self = 0;
    for (const double v : acc.self_us) total_self += v;
    out.Raw(name, JsonObject()
                      .Int("count", static_cast<int64_t>(acc.dur_us.size()))
                      .Num("median_us", Median(acc.dur_us))
                      .Num("median_self_us", Median(acc.self_us))
                      .Num("total_self_ms", total_self / 1e3)
                      .Finish());
  }
  return out.Finish();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    JsonObject counts;
    for (const auto& [name, value] : s.counts) counts.Int(name, value);
    const std::string line = JsonObject()
                                 .Int("request", s.request)
                                 .Int("id", s.id)
                                 .Int("parent", s.parent)
                                 .Str("name", s.name)
                                 .Num("start_us", (s.start_ns - t0) / 1e3)
                                 .Num("end_us", (s.end_ns - t0) / 1e3)
                                 .Raw("counts", counts.Finish())
                                 .Finish();
    std::fprintf(f, "%s\n", line.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace xbench
