#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xbench {

namespace {
void (*g_fatal_hook)() = nullptr;
}  // namespace

void SetFatalHook(void (*hook)()) { g_fatal_hook = hook; }

void Fatal(const std::string& message) {
  std::fprintf(stderr, "xbench: %s\n", message.c_str());
  if (g_fatal_hook != nullptr) g_fatal_hook();
  std::fflush(stdout);
  std::exit(1);
}

std::optional<Percentile> ExactPercentile(std::vector<double> samples,
                                          double q, int64_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  Percentile p;
  p.value = samples[rank - 1];
  p.samples = static_cast<int64_t>(n);
  p.beyond = static_cast<int64_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), p.value));
  if (p.beyond < min_beyond) return std::nullopt;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonObject::Key(std::string_view key) {
  if (body_.size() > 1) body_.push_back(',');
  body_ += JsonString(key);
  body_.push_back(':');
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
  }
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

void AddMetric(JsonObject* metrics, std::string_view name, double value,
               std::string_view unit) {
  metrics->Raw(name, JsonObject().Num("value", value).Str("unit", unit).Finish());
}

}  // namespace xbench
