#pragma once

// Shared plumbing for the workloads: run arguments, process probes, the
// machine calibration kernel and the seed-exact count gate.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "stats.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) where seed-exact counts persist between
  /// runs, so a repeat of (workload, seed) must reproduce them exactly.
  std::string state_dir;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

/// Current OS thread count of this process.
int thread_count();

/// Samples thread_count() every few milliseconds on a helper thread while
/// alive; peak() is the largest count seen, helper excluded.
class ThreadPeak {
 public:
  ThreadPeak();
  ~ThreadPeak();
  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;
  int peak() const { return peak_.load() - 1; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

/// Fixed-size single-threaded matmul rate (256x256 doubles through the
/// library's kernel, best of 25), GFLOP/s; normalizes wall times across
/// machines.
double calibrate_matmul_gflops();

/// Seed-exact count gate: compares `counts` with what an earlier run of the
/// same (workload, seed, seconds) stored under state_dir, records a check failure on
/// any difference, and stores keys not seen before.
void gate_seed_exact_counts(const RunArgs& args,
                            const std::map<std::string, double>& counts,
                            Report& report);

/// Meter category label -> per-layer metric suffix ("phase/walk_init" ->
/// "walk_init").
std::string category_name(const std::string& label);

/// The meter categories the benchmark reports as cclique.rounds.<name>.
const char* const* meter_categories();

void run_clique(const RunArgs& args, Report& report);
void run_serve(const RunArgs& args, Report& report);
int run_selftest();

}  // namespace perfbench
