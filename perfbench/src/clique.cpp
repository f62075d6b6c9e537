// clique_gnp and clique_lollipop: closed-loop draws on the congested_clique
// backend, and their traced replay.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <thread>

#include "engine/engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "linalg/parallel.hpp"
#include "replay.hpp"
#include "serving.hpp"

namespace perfbench {
namespace cq = cliquest;

namespace {

/// Draws every run completes, whatever its length: the seed-exact counts
/// and rounds_per_draw are taken over draw indices [0, kCountPrefix).
constexpr int kCountPrefix = 8;
/// Pool budget of the serving cross-check: roomy, so nothing is evicted.
constexpr std::size_t kCrossCheckBudget = std::size_t{256} << 20;

cq::graph::Graph make_graph(const std::string& workload, std::uint64_t seed) {
  if (workload == "clique_gnp") {
    cq::util::Rng rng(cq::util::splitmix64(seed));
    return cq::graph::gnp_connected(256, 0.08, rng);
  }
  return cq::graph::lollipop(24, 24);
}

}  // namespace

void run_clique(const RunArgs& args, Report& report) {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int draw_threads = std::min(2, nproc);
  cq::linalg::ParallelConfig kernel = cq::linalg::matmul_parallel();
  // Draw threads x kernel threads fill half the machine: on a shared VM a
  // run that keeps every vCPU busy stalls on each stolen one, which more
  // than doubles the run-to-run spread.
  kernel.threads = std::max(1, nproc / 2 / draw_threads);
  cq::linalg::set_matmul_parallel(kernel);
  std::printf("  draw threads %d x kernel threads %d, nproc %d\n", draw_threads,
              cq::linalg::matmul_threads(), nproc);

  cq::engine::EngineOptions options = cq::engine::EngineOptions::builder()
                                          .backend(cq::engine::Backend::congested_clique)
                                          .seed(args.seed)
                                          .threads(draw_threads)
                                          .build();

  // Set-up: input generation through prepare(). Timed again between the
  // timed batches (see below), so setup_s samples the whole run.
  std::vector<double> setup_s, admit_ms;
  const auto set_up = [&](std::shared_ptr<const cq::graph::Graph>& graph_out) {
    const Clock::time_point start = Clock::now();
    graph_out = std::make_shared<const cq::graph::Graph>(make_graph(args.workload, args.seed));
    const Clock::time_point admitted = Clock::now();
    std::unique_ptr<cq::engine::SpanningTreeSampler> built =
        cq::engine::make_sampler(*graph_out, options);
    built->prepare();
    const Clock::time_point ready = Clock::now();
    setup_s.push_back(seconds_between(start, ready));
    admit_ms.push_back(seconds_between(admitted, ready) * 1e3);
    return built;
  };
  std::shared_ptr<const cq::graph::Graph> graph;
  std::unique_ptr<cq::engine::SpanningTreeSampler> sampler = set_up(graph);
  std::printf("  graph n=%d m=%d, set-up %.6f s\n", graph->vertex_count(),
              graph->edge_count(), setup_s.front());

  CountTotals prefix;
  std::int64_t attempted = 0, failed = 0;
  const auto check_tree = [&](const cq::graph::TreeEdges& tree, std::int64_t index) {
    ++attempted;
    if (cq::graph::is_spanning_tree(*graph, tree)) return;
    ++failed;
    report.check(false, "draw " + std::to_string(index) + " is not a spanning tree");
  };

  if (!args.trace) {
    std::vector<double> draw_ms;
    double setup_seconds = 0.0;  // set-ups inside the loop, not loop time
    const Clock::time_point start = Clock::now();
    std::int64_t first = 0;
    while (seconds_between(start, Clock::now()) < args.seconds || first < kCountPrefix) {
      const Clock::time_point t0 = Clock::now();
      cq::engine::BatchResult batch = sampler->sample_batch_from(first, draw_threads);
      const double batch_seconds = seconds_between(t0, Clock::now());
      for (std::size_t j = 0; j < batch.trees.size(); ++j) {
        const cq::engine::DrawStats& stats = batch.report.draws[j];
        check_tree(batch.trees[j], stats.index);
        draw_ms.push_back(stats.seconds * 1e3);
        if (stats.index < kCountPrefix) {
          prefix.rounds += stats.rounds;
          prefix.phases += stats.phases;
          prefix.walk_steps += stats.walk_steps;
          ++prefix.draws;
        }
      }
      // Batches never straddle the prefix (it is a multiple of the batch
      // size), so the merged meter of a prefix batch is exactly its draws'.
      if (first < kCountPrefix) prefix.meter.merge(batch.report.meter);
      first += draw_threads;
      // Set-up samples spread over the whole run (a burst of them at start
      // inherits whatever load the host carries in that half second): after
      // each batch, repeat set-up for about 2% of the batch's time, at least
      // once. The sampler each one builds is discarded.
      const Clock::time_point s0 = Clock::now();
      std::shared_ptr<const cq::graph::Graph> scratch_graph;
      do {
        set_up(scratch_graph);
      } while (seconds_between(s0, Clock::now()) < 0.02 * batch_seconds);
      setup_seconds += seconds_between(s0, Clock::now());
    }
    std::printf("  %zu set-ups\n", setup_s.size());
    const double elapsed = seconds_between(start, Clock::now()) - setup_seconds;
    report.set("setup_s", median(setup_s), "s");
    report.set("draws_per_s", static_cast<double>(first) / elapsed, "1/s");
    report_latency(report, "draw_p50_ms", "draw_p90_ms", 0.90, draw_ms, "ms");
    report.set("rounds_per_draw", prefix.named(false)["rounds_per_draw"], "rounds");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.set("ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio");
    report.attempted = attempted;
    report.failed = failed;
    gate_seed_exact_counts(args, prefix.named(false), report);
    return;
  }

  // Admission latency (construction + prepare()) over 0.5 s of set-ups.
  while (setup_s.size() < 3 || std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < 0.5) {
    std::shared_ptr<const cq::graph::Graph> scratch_graph;
    set_up(scratch_graph);
  }
  report_latency(report, "admit_p50_ms", "admit_p99_ms", 0.99, admit_ms, "ms");

  // Traced run: each draw index runs through the engine and through the
  // replay, back to back on the same thread; the two must agree exactly.
  ThreadPeak threads;
  LayerClock clock;
  const ReplayPrepared prepared = replay_prepare(graph, options.clique_options(), clock);
  std::mutex mutex;
  std::vector<cq::graph::TreeEdges> prefix_trees(kCountPrefix);
  std::vector<DrawCounts> prefix_counts(kCountPrefix);
  std::int64_t replay_equal = 0;
  double engine_seconds = 0.0;
  std::atomic<std::int64_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto worker = [&] {
    LayerClock local;
    while (true) {
      const std::int64_t i = next.fetch_add(1);
      if (i >= kCountPrefix && seconds_between(start, Clock::now()) >= args.seconds) break;
      const cq::engine::Draw draw = sampler->sample_indexed(i);
      ReplayDraw replay = replay_draw(prepared, options.seed, i, local);
      const bool equal = replay.tree == draw.tree &&
                         same_meter(replay.counts.meter, draw.meter) &&
                         replay.counts.phases == draw.stats.phases &&
                         replay.counts.walk_steps == draw.stats.walk_steps &&
                         replay.counts.meter.total_rounds() == draw.stats.rounds;
      const std::lock_guard<std::mutex> lock(mutex);
      check_tree(draw.tree, i);
      engine_seconds += draw.stats.seconds;
      if (equal)
        ++replay_equal;
      else
        ++failed;
      report.check(equal, "replay of draw " + std::to_string(i) + " differs from the engine");
      if (i < kCountPrefix) {
        prefix_trees[static_cast<std::size_t>(i)] = draw.tree;
        prefix_counts[static_cast<std::size_t>(i)] = std::move(replay.counts);
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    clock.merge(local);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < draw_threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (const DrawCounts& c : prefix_counts) prefix.add(c);
  report_replay_layers(clock, report);
  report_counts(prefix, report);
  report.set("core.replay_equal", static_cast<double>(replay_equal), "count");
  report.set("harness.replayed_draws", static_cast<double>(clock.draws), "count");
  report.set("harness.trace_overhead_frac", clock.draw_total / engine_seconds - 1.0, "ratio");
  report.set("engine.draw_threads", draw_threads, "count");
  report.set("linalg.matmul_threads", cq::linalg::matmul_threads(), "count");
  gate_seed_exact_counts(args, prefix.named(true), report);

  // Serving cross-check: the same graph served through the full stack must
  // return the engine's trees for the pinned ranges [0, 2) and [2, 4).
  {
    ServingStack stack(kCrossCheckBudget);
    OpenLoopPlan plan;
    plan.slots.push_back({graph, options});
    plan.batches = {{0.0, 0, 2, true}, {0.005, 0, 2, true}};
    const std::vector<cq::engine::Fingerprint> fps = admit_slots(*stack.cluster, plan);
    const OpenLoopResult run = run_open_loop(*stack.cluster, plan, fps, true, report);
    std::vector<double> batch_ms;
    for (const BatchOutcome& outcome : run.batches) {
      attempted += 2;
      if (!outcome.ok) {
        failed += 2;
        continue;
      }
      batch_ms.push_back(outcome.latency_ms);
      for (std::size_t j = 0; j < outcome.response->batch.trees.size(); ++j) {
        const std::size_t index = static_cast<std::size_t>(outcome.expected_first) + j;
        report.check(outcome.response->batch.trees[j] == prefix_trees[index],
                     "served draw " + std::to_string(index) + " differs from the engine");
      }
    }
    report_latency(report, "batch_p50_ms", "batch_p99_ms", 0.99, batch_ms, "ms");
    report_serving_layers(*stack.cluster, run, kCrossCheckBudget, report);
  }
  report.set("pool.drop_race_repro", reproduce_drop_race() ? 1.0 : 0.0, "count");
  report.set("process.threads_peak", threads.peak(), "count");
  report.attempted = attempted;
  report.failed = failed;
}

}  // namespace perfbench
