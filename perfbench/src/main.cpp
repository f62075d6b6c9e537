// perfbench: the repository benchmark.
//
//   perfbench --workload <clique_gnp|clique_lollipop|serve_mixed> --seed N
//             --seconds S --trace <0|1> --state-dir DIR [--commit ID]
//   perfbench --selftest
//
// Prints an environment record, per-metric notes, and as its last line one
// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
// run. Exits 1 when an output check failed, 2 on a usage or runtime error.

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

const char* flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == name) return argv[i + 1];
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--selftest") return run_selftest();
  const char* workload = flag(argc, argv, "--workload");
  const char* seed = flag(argc, argv, "--seed");
  const char* seconds = flag(argc, argv, "--seconds");
  const char* trace = flag(argc, argv, "--trace");
  const char* state_dir = flag(argc, argv, "--state-dir");
  const char* commit = flag(argc, argv, "--commit");
  if (!workload || !seed || !seconds || !trace || !state_dir) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--state-dir DIR [--commit ID]\n");
    return 2;
  }
  RunArgs args;
  args.workload = workload;
  args.state_dir = state_dir;
  try {
    args.seed = std::stoull(seed);
    args.seconds = std::stod(seconds);
    args.trace = std::string(trace) == "1";
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: bad --seed/--seconds value\n");
    return 2;
  }
  const bool clique = args.workload == "clique_gnp" || args.workload == "clique_lollipop";
  if (!clique && args.workload != "serve_mixed") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload);
    return 2;
  }

  Report report;
  try {
    const double gflops = calibrate_matmul_gflops();
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    if (args.trace) {
      report.set("calib.matmul_gflops", gflops, "GFLOP/s");
      report.set("env.nproc", nproc, "count");
    }
    std::printf("ENV {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"nproc\": %d, \"calib_matmul_gflops\": %s, \"commit\": %s}\n",
                json_string(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed),
                json_number(args.seconds).c_str(), args.trace ? 1 : 0, nproc,
                json_number(gflops).c_str(), json_string(commit ? commit : "unknown").c_str());
    if (clique)
      run_clique(args, report);
    else
      run_serve(args, report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  for (const std::string& failure : report.check_failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  std::printf("%s\n", result_json(report).c_str());
  std::fflush(stdout);
  return report.check_failures.empty() ? 0 : 1;
}
