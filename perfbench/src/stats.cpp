#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double h = (static_cast<double>(values.size()) - 1.0) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t samples_beyond(std::size_t count, double q) {
  if (count == 0) return 0;
  const double h = (static_cast<double>(count) - 1.0) * q;
  const auto rank = static_cast<std::size_t>(std::ceil(h));
  return count - 1 - std::min(rank, count - 1);
}

void report_latency(Report& report, const std::string& name_p50,
                    const std::string& name_tail, double tail_q,
                    const std::vector<double>& samples, const std::string& unit) {
  report.set(name_p50, median(samples), unit);
  report.set(name_tail, quantile(samples, tail_q), unit);
  std::printf("  %-22s n=%zu, %zu samples beyond the tail quantile %.2f\n",
              name_tail.c_str(), samples.size(), samples_beyond(samples.size(), tail_q),
              tail_q);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string result_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.check_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
