// serve_mixed: open-loop mixed traffic through the cluster serving stack.

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "engine/engine.hpp"
#include "graph/connectivity.hpp"
#include "linalg/parallel.hpp"
#include "replay.hpp"
#include "schedule.hpp"
#include "serving.hpp"

namespace perfbench {
namespace cq = cliquest;

namespace {

constexpr int kSlots = 48;
/// Arrivals per second, well under the stack's knee. At 1000/s the vCPUs
/// sat idle most of the time and the p90 per-draw time of ten runs spread
/// 19% of its median; at 2000/s it spread 3-8%.
constexpr double kRate = 2000.0;
constexpr double kWriteShare = 0.05;
constexpr double kZipfExponent = 1.1;
/// Set-up takes tens of milliseconds, half of it admission round trips.
constexpr int kSetupRepeats = 15;
/// Oracle sample: the first kOraclePerClique batches of every clique slot
/// (their rounds give rounds_per_draw) and every kOracleWilsonStride-th
/// wilson batch.
constexpr int kOraclePerClique = 12;
constexpr int kOracleWilsonStride = 32;

bool is_clique_slot(int slot) { return slot % 8 == 7; }

/// Vertex count of a slot's graphs. Sizes are fixed per popularity rank,
/// spread over [16, 24] (clique) and [64, 256] (wilson) in an interleaved
/// order, so the size mix the traffic sees is the same for every seed; the
/// seed draws the edges.
int slot_vertices(int slot) {
  if (is_clique_slot(slot)) return 16 + (slot / 8) * 8 / 5;
  const int j = slot - slot / 8;  // index among the 42 wilson slots
  return 64 + (j * 17 % 42) * 192 / 41;
}

/// G(n, p) conditioned on being connected, in O(n + m) per attempt: the gap
/// to the next present pair is drawn geometrically (Batagelj and Brandes,
/// 2005) instead of one coin per pair as graph::gnp_connected does, so the
/// write thread spends little time building fresh graphs.
cq::graph::Graph sparse_gnp_connected(int n, double p, cq::util::Rng& rng) {
  const double log_q = std::log1p(-p);
  for (int attempt = 0; attempt < 200; ++attempt) {
    cq::graph::Graph g(n);
    // Pairs (w, v) with w < v in row-major order; w runs past v to carry.
    long long v = 1, w = -1;
    while (v < n) {
      w += 1 + static_cast<long long>(std::floor(std::log1p(-rng.next_double()) / log_q));
      while (w >= v && v < n) {
        w -= v;
        ++v;
      }
      if (v < n) g.add_edge(static_cast<int>(w), static_cast<int>(v));
    }
    if (cq::graph::is_connected(g)) return g;
  }
  throw std::runtime_error("sparse_gnp_connected: no connected graph in 200 attempts");
}

SlotEntry make_entry(int slot, cq::util::Rng& rng) {
  const bool clique = is_clique_slot(slot);
  const int n = slot_vertices(slot);
  SlotEntry entry;
  entry.graph = std::make_shared<const cq::graph::Graph>(
      sparse_gnp_connected(n, 8.0 / n, rng));
  entry.options = cq::engine::EngineOptions::builder()
                      .backend(clique ? cq::engine::Backend::congested_clique
                                      : cq::engine::Backend::wilson)
                      .seed(rng.next_u64())
                      .build();
  return entry;
}

/// Combined prepare() bytes of the plan's clique slots.
std::size_t clique_prepare_bytes(const OpenLoopPlan& plan) {
  std::size_t bytes = 0;
  for (int slot = 0; slot < kSlots; ++slot) {
    if (!is_clique_slot(slot)) continue;
    const SlotEntry& entry = plan.slots[static_cast<std::size_t>(slot)];
    auto sampler = cq::engine::make_sampler(*entry.graph, entry.options);
    sampler->prepare();
    bytes += sampler->memory_bytes();
  }
  return bytes;
}

}  // namespace

OpenLoopPlan make_serve_plan(std::uint64_t seed, double seconds) {
  OpenLoopPlan plan;
  plan.duration = seconds;
  cq::util::Rng graphs(cq::util::splitmix64(seed ^ 0x67726170685full));
  for (int slot = 0; slot < kSlots; ++slot)
    plan.slots.push_back(make_entry(slot, graphs));
  std::vector<int> wilson_slots;
  for (int slot = 0; slot < kSlots; ++slot)
    if (!is_clique_slot(slot)) wilson_slots.push_back(slot);

  plan.fresh_entry = [](const WriteOp& op) {
    cq::util::Rng rng(op.seed);
    return make_entry(op.slot, rng);
  };

  cq::util::Rng ops(cq::util::splitmix64(seed ^ 0x6f70735f7363686full));
  const Zipf popularity(kSlots, kZipfExponent);
  std::vector<int> clique_batches(kSlots, 0);
  int wilson_batches = 0;
  for (const double due : poisson_arrivals(kRate, seconds, ops)) {
    if (ops.bernoulli(kWriteShare)) {
      const int slot = wilson_slots[ops.uniform_below(wilson_slots.size())];
      plan.writes.push_back({due, slot, graphs.next_u64()});
      continue;
    }
    BatchOp op;
    op.due = due;
    op.slot = popularity.sample(ops);
    if (is_clique_slot(op.slot)) {
      op.draws = 1;
      op.oracle = clique_batches[static_cast<std::size_t>(op.slot)]++ < kOraclePerClique;
    } else {
      op.draws = ops.uniform_int(1, 8);
      op.oracle = wilson_batches++ % kOracleWilsonStride == 0;
    }
    plan.batches.push_back(op);
  }
  return plan;
}

void run_serve(const RunArgs& args, Report& report) {
  cq::linalg::ParallelConfig kernel = cq::linalg::matmul_parallel();
  kernel.threads = 1;
  cq::linalg::set_matmul_parallel(kernel);

  // Set-up: inputs, the stack, and every admission, repeated; the last
  // stack serves the timed schedule.
  std::vector<double> setup_s;
  OpenLoopPlan plan;
  std::size_t budget = 0;
  std::unique_ptr<ServingStack> stack;
  std::vector<cq::engine::Fingerprint> fps;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    plan = make_serve_plan(args.seed, args.seconds);
    budget = clique_prepare_bytes(plan) / 4;
    stack = std::make_unique<ServingStack>(budget);
    fps = admit_slots(*stack->cluster, plan);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  std::printf("  %zu batches, %zu writes, per-shard budget %zu bytes\n",
              plan.batches.size(), plan.writes.size(), budget);

  std::unique_ptr<ThreadPeak> threads;
  if (args.trace) threads = std::make_unique<ThreadPeak>();
  const OpenLoopResult run = run_open_loop(*stack->cluster, plan, fps, args.trace, report);

  // Oracle: the sampled batches drawn again in process on the same pinned
  // ranges must encode to the same bytes as the served ones.
  cq::engine::LocalService oracle(cq::engine::PoolOptions{});
  CountTotals clique_counts;
  LayerClock clock;
  std::map<std::string, ReplayPrepared> replays;
  std::int64_t replay_equal = 0, oracle_checked = 0, mismatches = 0;
  double engine_seconds = 0.0;
  for (std::size_t i = 0; i < plan.batches.size(); ++i) {
    const BatchOp& op = plan.batches[i];
    if (!op.oracle) continue;
    const BatchOutcome& outcome = run.batches[i];
    const cq::engine::Fingerprint fp =
        oracle.admit({*outcome.entry.graph, outcome.entry.options});
    const cq::engine::BatchResponse expected =
        oracle.sample_batch({fp, op.draws, outcome.expected_first});
    if (outcome.ok) {
      ++oracle_checked;
      const bool equal = canonical_bytes(*outcome.response) == canonical_bytes(expected);
      mismatches += equal ? 0 : 1;
      report.check(equal, "served batch " + std::to_string(i) + " differs from the oracle");
    }
    if (!is_clique_slot(op.slot)) continue;
    for (std::size_t j = 0; j < expected.batch.trees.size(); ++j) {
      const cq::engine::DrawStats& stats = expected.batch.report.draws[j];
      clique_counts.rounds += stats.rounds;
      clique_counts.phases += stats.phases;
      clique_counts.walk_steps += stats.walk_steps;
      ++clique_counts.draws;
    }
    clique_counts.meter.merge(expected.batch.report.meter);
    if (!args.trace) continue;
    auto it = replays.find(fp.to_string());
    if (it == replays.end())
      it = replays
               .emplace(fp.to_string(),
                        replay_prepare(outcome.entry.graph,
                                       outcome.entry.options.clique_options(), clock))
               .first;
    CountTotals replayed;
    for (std::size_t j = 0; j < expected.batch.trees.size(); ++j) {
      const std::int64_t index = outcome.expected_first + static_cast<std::int64_t>(j);
      ReplayDraw replay = replay_draw(it->second, outcome.entry.options.seed, index, clock);
      engine_seconds += expected.batch.report.draws[j].seconds;
      const bool equal = replay.tree == expected.batch.trees[j] &&
                         replay.counts.meter.total_rounds() ==
                             expected.batch.report.draws[j].rounds;
      replay_equal += equal ? 1 : 0;
      mismatches += equal ? 0 : 1;
      report.check(equal, "replay of served clique batch " + std::to_string(i) +
                              " differs from the engine");
      replayed.add(replay.counts);
    }
    clique_counts.levels += replayed.levels;
    clique_counts.extensions += replayed.extensions;
    report.check(same_meter(replayed.meter, expected.batch.report.meter),
                 "replayed meter of batch " + std::to_string(i) + " differs");
  }
  std::printf("  oracle compared %lld served batches byte for byte\n",
              static_cast<long long>(oracle_checked));

  std::int64_t failed_batches = 0;
  std::vector<double> batch_ms;
  for (const BatchOutcome& outcome : run.batches) {
    if (outcome.ok)
      batch_ms.push_back(outcome.latency_ms);
    else
      ++failed_batches;
  }
  report.attempted = static_cast<std::int64_t>(plan.batches.size() + plan.writes.size());
  report.failed = failed_batches + run.write_failures + mismatches;
  for (const auto& [name, count] : run.failures)
    std::printf("  failures %s: %lld\n", name.c_str(), static_cast<long long>(count));
  const bool drop_race = reproduce_drop_race();
  std::printf("  pool drop race (a drop racing a queued batch breaks later evictions): %s\n",
              drop_race ? "reproduced" : "not reproduced");

  if (!args.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("draws_per_s", static_cast<double>(run.trees_ok) / plan.duration, "1/s");
    report_latency(report, "draw_p50_ms", "draw_p90_ms", 0.90, run.draw_ms, "ms");
    report.set("rounds_per_draw", clique_counts.named(false)["rounds_per_draw"], "rounds");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.set("ok_frac",
               1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "ratio");
    gate_seed_exact_counts(args, clique_counts.named(false), report);
    return;
  }

  report_latency(report, "batch_p50_ms", "batch_p99_ms", 0.99, batch_ms, "ms");
  report_latency(report, "admit_p50_ms", "admit_p99_ms", 0.99, run.admit_ms, "ms");
  report_replay_layers(clock, report);
  report_counts(clique_counts, report);
  report.set("core.replay_equal", static_cast<double>(replay_equal), "count");
  report.set("harness.replayed_draws", static_cast<double>(clock.draws), "count");
  report.set("harness.trace_overhead_frac", clock.draw_total / engine_seconds - 1.0, "ratio");
  report.set("engine.draw_threads", 1, "count");
  report.set("linalg.matmul_threads", cq::linalg::matmul_threads(), "count");
  gate_seed_exact_counts(args, clique_counts.named(true), report);
  report_serving_layers(*stack->cluster, run, budget, report);
  report.set("pool.drop_race_repro", drop_race ? 1.0 : 0.0, "count");
  report.set("process.threads_peak", threads->peak(), "count");
}

}  // namespace perfbench
