// Shared helpers of the xbench binary: clocks, exact sample statistics and
// a minimal JSON object writer for the result lines.
#ifndef XBENCH_COMMON_H_
#define XBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Prints `message` to stderr and exits with status 1 (no result line),
/// after running the hook set by SetFatalHook (which stops child
/// processes).
[[noreturn]] void Fatal(const std::string& message);
void SetFatalHook(void (*hook)());

/// An exact percentile of raw samples: the nearest-rank value at quantile
/// `q`, together with how many samples lie strictly beyond it. A
/// percentile with fewer than `min_beyond` samples beyond it is withheld
/// (std::nullopt) — its value would be one or two outliers, not a tail.
struct Percentile {
  double value = 0;
  int64_t samples = 0;  // total sample count
  int64_t beyond = 0;   // samples strictly greater than `value`
};
std::optional<Percentile> ExactPercentile(std::vector<double> samples,
                                          double q, int64_t min_beyond = 10);

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
double Median(std::vector<double> values);

/// Builds one JSON object incrementally: Num/Str/Bool/Raw append fields.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, int64_t value);
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Bool(std::string_view key, bool value);
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string Finish() const { return body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_ = "{";
};

/// Adds `name: {"value": value, "unit": unit}` — one result metric.
void AddMetric(JsonObject* metrics, std::string_view name, double value,
               std::string_view unit);

/// `s` as a quoted, escaped JSON string.
std::string JsonString(std::string_view s);

}  // namespace xbench

#endif  // XBENCH_COMMON_H_
