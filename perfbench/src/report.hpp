// Small helpers shared by the benchmark tools: quantiles over samples and a
// flat JSON object writer for the result line each tool prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace pb {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (q in [0, 1]) of `v`; sorts `v`. NaN when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Accumulates one flat JSON object. Non-finite numbers are written as null.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  /// `v` must already be valid JSON (a nested object or array).
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace pb
