#pragma once

// The serving stack under test and the open-loop load generator that drives
// it. Both serve_mixed and the clique workloads' traced serving cross-check
// use them, so every serving layer is measured the same way.
//
// Stack: ClusterService -> 2 LoopbackShard members (pipe transport, 1
// stripe, replication 1) -> transport::Server -> LocalService (1 pool worker
// each).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/cluster/cluster_service.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"

namespace perfbench {

namespace eng = cliquest::engine;

struct ServingStack {
  explicit ServingStack(std::size_t budget_bytes_per_shard);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  std::vector<std::shared_ptr<eng::LoopbackShard>> members;
  std::unique_ptr<eng::cluster::ClusterService> cluster;
};

/// One admitted graph a schedule can address by slot.
struct SlotEntry {
  std::shared_ptr<const cliquest::graph::Graph> graph;
  eng::EngineOptions options;
};

struct BatchOp {
  double due = 0.0;  // seconds after the schedule starts
  int slot = 0;
  int draws = 1;
  bool oracle = false;  // replayed against the in-process oracle afterwards
};

/// Drop the slot's current fingerprint and admit a fresh entry, built from
/// `seed`, in its place.
struct WriteOp {
  double due = 0.0;
  int slot = 0;
  std::uint64_t seed = 0;
};

struct OpenLoopPlan {
  std::vector<SlotEntry> slots;  // admitted during set-up
  std::vector<BatchOp> batches;  // batch generator thread, in due order
  std::vector<WriteOp> writes;   // write generator thread, in due order
  /// A write's fresh entry, a pure function of the op. The write thread
  /// builds each one before the write is due, so the thousands of graphs
  /// a long schedule admits are neither held nor generated during set-up.
  std::function<SlotEntry(const WriteOp&)> fresh_entry;
  double duration = 0.0;
};

struct BatchOutcome {
  bool ok = false;
  std::string error;                // ServiceErrorCode name or "other"
  double latency_ms = 0.0;          // completion - due time
  SlotEntry entry;                  // what the batch was drawn from
  eng::Fingerprint fingerprint;
  std::int64_t expected_first = 0;  // the range the cluster must pin
  std::optional<eng::BatchResponse> response;  // kept for oracle batches
};

struct OpenLoopResult {
  std::vector<BatchOutcome> batches;  // index-aligned with plan.batches
  std::vector<double> admit_ms;       // successful drop+admit writes
  std::vector<double> draw_ms;        // DrawStats.seconds of served draws
  std::vector<double> late_us;        // generator lateness, both threads
  std::vector<double> submit_us;      // time inside ClusterService::submit_batch
  std::vector<double> issued_us;      // submit start -> completion, ok batches
  std::map<std::string, std::int64_t> failures;  // by error name
  std::int64_t write_failures = 0;
  std::int64_t trees_ok = 0;
  std::int64_t backlog_end = 0;  // batches in flight when the schedule ended
  // Wire codec, measured only when tracing: responses re-encoded and decoded.
  double codec_seconds = 0.0;
  std::int64_t codec_responses = 0;
  double response_bytes = 0.0;
  double admit_bytes = 0.0;
  std::int64_t admit_encodes = 0;
};

/// The serve_mixed inputs, a pure function of (seed, seconds): 48 slots
/// (ranks r % 8 == 7 are congested_clique on G(n in [16, 24], 8/n) with 1
/// draw per batch, the rest wilson on G(n in [64, 256], 8/n) with 1-8
/// draws), Zipf(1.1) slot popularity, Poisson arrivals at 2000/s, and 5% of
/// operations writes that replace a uniformly chosen wilson slot's graph
/// with a fresh same-size one.
OpenLoopPlan make_serve_plan(std::uint64_t seed, double seconds);

/// Admits every slot of the plan; returns the slot fingerprints.
std::vector<eng::Fingerprint> admit_slots(eng::SamplerService& service,
                                          const OpenLoopPlan& plan);

/// Runs the plan open loop against `service` (admitted with admit_slots):
/// one thread issues batches at their due times, one issues the writes, and
/// a collector timestamps completions. Every served tree is checked to be a
/// spanning tree of its graph and every pinned range against the expected
/// cursor; failures go to `report`.
OpenLoopResult run_open_loop(eng::cluster::ClusterService& service,
                             const OpenLoopPlan& plan,
                             const std::vector<eng::Fingerprint>& slot_fps,
                             bool trace, Report& report);

/// Reproduces the pool's drop race on a private one-worker LocalService
/// whose budget fits one congested_clique entry: a wilson batch queues
/// behind a long clique batch, its fingerprint is dropped, both finish, and
/// then one clique miss needs an eviction. Returns whether that miss fails.
/// SamplerPool::serve re-inserts the dropped entry into its LRU list, and
/// the eviction throws std::out_of_range on it, so today this returns true.
bool reproduce_drop_race();

/// The response with its timing- and placement-dependent fields cleared, so
/// two servings of the same pinned range encode to the same bytes.
eng::wire::Bytes canonical_bytes(eng::BatchResponse response);

/// Per-layer serving metrics from stats() and the run's own measurements.
void report_serving_layers(const eng::cluster::ClusterService& service,
                           const OpenLoopResult& run, std::size_t budget_bytes,
                           Report& report);

}  // namespace perfbench
