#pragma once

// Sample summaries and the metric record every workload fills in.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `values` by linear interpolation between the two
/// closest ranks (h = (n - 1) q, the "type 7" rule numpy and R default to).
/// Sorts its copy; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Samples strictly above the q-quantile's rank position, i.e. how many
/// observations the reported tail percentile rests on.
std::size_t samples_beyond(std::size_t count, double q);

/// A named metric with its unit, printed as {"value": v, "unit": u}.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Every metric a run produced, plus the run's operation tallies.
struct Report {
  std::map<std::string, Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output checks that failed (a wrong tree, a replay mismatch, a changed
  /// seed-exact count). Any entry makes the run incorrect.
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Reports a latency sample as <prefix>p50/<prefix>p<tail> in `unit`
/// (samples given in that unit) and prints how many samples the tail rests
/// on, so a tail with fewer than ten samples beyond it is visible.
void report_latency(Report& report, const std::string& name_p50,
                    const std::string& name_tail, double tail_q,
                    const std::vector<double>& samples, const std::string& unit);

/// The final JSON line: correct/attempted/failed/metrics, numbers with all
/// their digits.
std::string result_json(const Report& report);

/// JSON string literal with the escapes this program's names can need.
std::string json_string(const std::string& text);

/// Exact decimal form of a double (17 significant digits).
std::string json_number(double value);

}  // namespace perfbench
