#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/parallel.hpp"

namespace perfbench {
namespace {

/// The value of a "Key:   <number> ..." line of /proc/self/status, or -1.
long proc_status_field(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line))
    if (line.rfind(prefix, 0) == 0) return std::stol(line.substr(prefix.size()));
  return -1;
}

}  // namespace

double peak_rss_mib() { return static_cast<double>(proc_status_field("VmHWM")) / 1024.0; }

int thread_count() { return static_cast<int>(proc_status_field("Threads")); }

ThreadPeak::ThreadPeak()
    : thread_([this] {
        while (!stop_.load()) {
          const int now = thread_count();
          if (now > peak_.load()) peak_.store(now);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadPeak::~ThreadPeak() {
  stop_.store(true);
  thread_.join();
}

double calibrate_matmul_gflops() {
  namespace la = cliquest::linalg;
  const la::ParallelConfig saved = la::matmul_parallel();
  la::ParallelConfig single = saved;
  single.threads = 1;
  la::set_matmul_parallel(single);
  const int m = 256;
  la::Matrix a(m, m);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) a(i, j) = 1.0 / (1.0 + i + 2.0 * j);
  double best = 0.0;
  for (int rep = 0; rep < 25; ++rep) {
    const auto start = Clock::now();
    la::Matrix b = a.multiply(a);
    const double seconds = seconds_between(start, Clock::now());
    if (b(0, 0) <= 0.0) throw std::runtime_error("calibration kernel: bad product");
    best = std::max(best, 2.0 * m * m * m / seconds / 1e9);
  }
  la::set_matmul_parallel(saved);
  return best;
}

void gate_seed_exact_counts(const RunArgs& args,
                            const std::map<std::string, double>& counts,
                            Report& report) {
  namespace fs = std::filesystem;
  fs::create_directories(args.state_dir);
  // The run length is part of the key: serve_mixed's oracle sample is taken
  // from a schedule that covers --seconds.
  const fs::path path = fs::path(args.state_dir) /
                        (args.workload + "-seed" + std::to_string(args.seed) + "-s" +
                         json_number(args.seconds) + ".counts");
  std::map<std::string, std::string> stored;
  {
    std::ifstream in(path);
    std::string name, value;
    while (in >> name >> value) stored[name] = value;
  }
  bool grew = false;
  for (const auto& [name, value] : counts) {
    const std::string text = json_number(value);
    const auto it = stored.find(name);
    if (it == stored.end()) {
      stored[name] = text;
      grew = true;
    } else if (it->second != text) {
      std::printf("SEED-EXACT MISMATCH %s: stored %s, now %s\n", name.c_str(),
                  it->second.c_str(), text.c_str());
      report.check(false, "seed-exact count changed: " + name);
    }
  }
  if (grew) {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& [name, value] : stored) out << name << ' ' << value << '\n';
  }
}

std::string category_name(const std::string& label) {
  const std::size_t slash = label.rfind('/');
  return slash == std::string::npos ? label : label.substr(slash + 1);
}

const char* const* meter_categories() {
  static const char* const names[] = {
      "truncation_search",      "matmul_schur_shortcut", "submatrix",
      "matmul_powers",          "midpoint_distributions", "midpoint_requests",
      "multiset_collect",       "first_visit_edges",     "walk_init",
      nullptr};
  return names;
}

}  // namespace perfbench
