#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "cclique/cost_model.hpp"
#include "core/phase.hpp"
#include "core/tree_sampler.hpp"
#include "harness.hpp"
#include "linalg/matrix_power.hpp"
#include "schur/schur_complement.hpp"
#include "schur/shortcut.hpp"
#include "util/rng.hpp"
#include "walk/transition.hpp"

namespace perfbench {
namespace cq = cliquest;

namespace {

using Clock = std::chrono::steady_clock;

/// Runs fn and adds its wall time to `slot`.
template <typename Fn>
auto timed(double& slot, Fn&& fn) {
  const auto start = Clock::now();
  struct Add {
    double& slot;
    Clock::time_point start;
    ~Add() { slot += std::chrono::duration<double>(Clock::now() - start).count(); }
  } add{slot, start};
  return fn();
}

/// The sampler's matmul charge for one phase's Schur and shortcut build
/// (Corollaries 2-3): log2 of an O(n^3) power plus one product.
std::int64_t derivative_graph_matmuls(int n) {
  const double log2n = std::log2(std::max(2.0, static_cast<double>(n)));
  return static_cast<std::int64_t>(std::ceil(3.0 * log2n + log2n)) + 1;
}

}  // namespace

void LayerClock::merge(const LayerClock& o) {
  transition_matrix += o.transition_matrix;
  shortcut_full += o.shortcut_full;
  power_table_prepare += o.power_table_prepare;
  prepares += o.prepares;
  schur_transition += o.schur_transition;
  shortcut_transition += o.shortcut_transition;
  power_table += o.power_table;
  power_table_flops += o.power_table_flops;
  phase_walk += o.phase_walk;
  first_visit += o.first_visit;
  draw_total += o.draw_total;
  draws += o.draws;
}

ReplayPrepared replay_prepare(std::shared_ptr<const cq::graph::Graph> graph,
                              const cq::core::SamplerOptions& options,
                              LayerClock& clock) {
  ReplayPrepared pre;
  pre.graph = std::move(graph);
  pre.options = options;
  const cq::graph::Graph& g = *pre.graph;
  const int n = g.vertex_count();
  pre.rho = cq::core::CongestedCliqueTreeSampler(pre.graph, options).rho();
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  pre.full_transition =
      timed(clock.transition_matrix, [&] { return cq::walk::transition_matrix(g); });
  pre.full_shortcut = timed(clock.shortcut_full,
                            [&] { return cq::schur::shortcut_transition(g, all); });
  pre.target_length = cq::core::choose_target_length(n, options);
  while ((std::int64_t{1} << pre.levels) < pre.target_length) ++pre.levels;
  pre.full_powers = timed(clock.power_table_prepare, [&] {
    return cq::linalg::power_table(pre.full_transition, pre.levels);
  });
  pre.prepared_powers = cq::walk::PreparedPowers(pre.full_powers.back(), pre.levels);
  ++clock.prepares;
  return pre;
}

ReplayDraw replay_draw(const ReplayPrepared& pre, std::uint64_t seed,
                       std::int64_t draw_index, LayerClock& clock) {
  const auto draw_start = Clock::now();
  const cq::graph::Graph& g = *pre.graph;
  const int n = g.vertex_count();
  cq::util::Rng rng(cq::util::splitmix64(cq::util::splitmix64(seed) +
                                         static_cast<std::uint64_t>(draw_index) + 1));
  cq::cclique::CostModel model;
  model.n = n;
  model.words_per_entry = pre.options.words_per_entry;

  ReplayDraw out;
  DrawCounts& counts = out.counts;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  visited[static_cast<std::size_t>(pre.options.start_vertex)] = 1;
  int visited_count = 1;
  int frontier = pre.options.start_vertex;
  cq::core::PhaseScratch scratch;

  while (visited_count < n) {
    ++counts.phases;
    std::vector<int> active;
    for (int v = 0; v < n; ++v)
      if (!visited[static_cast<std::size_t>(v)] || v == frontier) active.push_back(v);
    std::unordered_map<int, int> local_of;
    for (std::size_t i = 0; i < active.size(); ++i)
      local_of.emplace(active[i], static_cast<int>(i));
    const int m = static_cast<int>(active.size());
    const bool full_phase = m == n;

    cq::linalg::Matrix transition_storage;
    cq::linalg::Matrix shortcut_storage;
    std::vector<cq::linalg::Matrix> powers_storage;
    const cq::linalg::Matrix* transition = &pre.full_transition;
    const cq::linalg::Matrix* shortcut = &pre.full_shortcut;
    const std::vector<cq::linalg::Matrix>* powers = &pre.full_powers;
    const cq::walk::PreparedPowers* prepared = &pre.prepared_powers;
    if (!full_phase) {
      transition_storage = timed(clock.schur_transition,
                                 [&] { return cq::schur::schur_transition(g, active); });
      shortcut_storage = timed(clock.shortcut_transition,
                               [&] { return cq::schur::shortcut_transition(g, active); });
      // The sampler squares inside build_phase_walk when it has no cached
      // table; building the identical table here times it on its own.
      powers_storage = timed(clock.power_table, [&] {
        return cq::linalg::power_table(transition_storage, pre.levels);
      });
      clock.power_table_flops += 2.0 * pre.levels * std::pow(static_cast<double>(m), 3.0);
      transition = &transition_storage;
      shortcut = &shortcut_storage;
      powers = &powers_storage;
      prepared = nullptr;
      counts.meter.charge("phase/matmul_schur_shortcut",
                          derivative_graph_matmuls(n) * model.matmul_rounds(), m);
    }

    std::vector<char> in_s(static_cast<std::size_t>(n), 0);
    for (int v : active) in_s[static_cast<std::size_t>(v)] = 1;
    const int target_distinct = std::min(pre.rho, m);
    const cq::core::PhaseWalkResult walk = timed(clock.phase_walk, [&] {
      return cq::core::build_phase_walk(*transition, local_of.at(frontier),
                                        target_distinct, pre.target_length, n,
                                        pre.options, rng, counts.meter, powers,
                                        prepared, &scratch);
    });

    int new_edges = 0;
    std::vector<char> seen_local(active.size(), 0);
    seen_local[static_cast<std::size_t>(walk.walk.front())] = 1;
    for (std::size_t i = 1; i < walk.walk.size(); ++i) {
      const int local = walk.walk[i];
      if (seen_local[static_cast<std::size_t>(local)]) continue;
      seen_local[static_cast<std::size_t>(local)] = 1;
      const int v = active[static_cast<std::size_t>(local)];
      const int prev = active[static_cast<std::size_t>(walk.walk[i - 1])];
      const int u = timed(clock.first_visit, [&] {
        return cq::schur::sample_first_visit_neighbor(g, in_s, *shortcut, prev, v, rng);
      });
      out.tree.emplace_back(u, v);
      visited[static_cast<std::size_t>(v)] = 1;
      ++visited_count;
      ++new_edges;
    }
    counts.meter.charge("phase/first_visit_edges", 2, new_edges);
    frontier = active[static_cast<std::size_t>(walk.walk.back())];
    counts.walk_steps += walk.final_length;
    counts.levels += walk.levels;
    counts.extensions += walk.extensions;
  }
  out.tree = cq::graph::canonical_tree(std::move(out.tree));
  clock.draw_total += std::chrono::duration<double>(Clock::now() - draw_start).count();
  ++clock.draws;
  return out;
}

bool same_meter(const cq::cclique::Meter& a, const cq::cclique::Meter& b) {
  const auto& x = a.categories();
  const auto& y = b.categories();
  if (x.size() != y.size()) return false;
  for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j)
    if (i->first != j->first || i->second.rounds != j->second.rounds ||
        i->second.messages != j->second.messages || i->second.events != j->second.events)
      return false;
  return true;
}

void CountTotals::add(const DrawCounts& counts) {
  meter.merge(counts.meter);
  rounds += counts.meter.total_rounds();
  phases += counts.phases;
  walk_steps += counts.walk_steps;
  levels += counts.levels;
  extensions += counts.extensions;
  ++draws;
}

std::map<std::string, double> CountTotals::named(bool with_levels) const {
  std::map<std::string, double> out;
  out["rounds_per_draw"] = draws > 0 ? static_cast<double>(rounds) / draws : 0.0;
  for (const char* const* c = meter_categories(); *c != nullptr; ++c)
    out[std::string("cclique.rounds.") + *c] = 0.0;
  for (const auto& [label, totals] : meter.categories())
    out["cclique.rounds." + category_name(label)] = static_cast<double>(totals.rounds);
  out["cclique.messages"] = static_cast<double>(meter.total_messages());
  out["core.phases"] = static_cast<double>(phases);
  out["core.walk_steps"] = static_cast<double>(walk_steps);
  if (with_levels) {
    out["core.levels"] = static_cast<double>(levels);
    out["core.extensions"] = static_cast<double>(extensions);
  }
  return out;
}

void report_counts(const CountTotals& totals, Report& report) {
  const std::map<std::string, double> named = totals.named(true);
  for (const char* const* c = meter_categories(); *c != nullptr; ++c) {
    const std::string name = std::string("cclique.rounds.") + *c;
    report.set(name, named.at(name), "rounds");
  }
  for (const char* name : {"cclique.messages", "core.phases", "core.walk_steps",
                           "core.levels", "core.extensions"})
    report.set(name, named.at(name), "count");
}

void report_replay_layers(const LayerClock& clock, Report& report) {
  const auto per_draw_ms = [&](double seconds) {
    return clock.draws > 0 ? seconds * 1e3 / static_cast<double>(clock.draws) : 0.0;
  };
  const auto per_prepare_ms = [&](double seconds) {
    return clock.prepares > 0 ? seconds * 1e3 / static_cast<double>(clock.prepares) : 0.0;
  };
  report.set("linalg.power_table_ms", per_draw_ms(clock.power_table), "ms");
  report.set("schur.shortcut_transition_ms", per_draw_ms(clock.shortcut_transition), "ms");
  report.set("schur.schur_transition_ms", per_draw_ms(clock.schur_transition), "ms");
  report.set("linalg.power_table_gflops",
             clock.power_table > 0 ? clock.power_table_flops / clock.power_table / 1e9 : 0.0,
             "GFLOP/s");
  report.set("core.phase_walk_ms", per_draw_ms(clock.phase_walk), "ms");
  report.set("schur.first_visit_ms", per_draw_ms(clock.first_visit), "ms");
  report.set("walk.transition_matrix_ms", per_prepare_ms(clock.transition_matrix), "ms");
  report.set("schur.shortcut_full_ms", per_prepare_ms(clock.shortcut_full), "ms");
  report.set("linalg.power_table_prepare_ms", per_prepare_ms(clock.power_table_prepare), "ms");
  report.set("harness.replay_draw_ms", per_draw_ms(clock.draw_total), "ms");
  const double derivative =
      clock.power_table + clock.shortcut_transition + clock.schur_transition;
  std::printf("  replay shares of draw time: power_table %.1f%%, shortcut %.1f%%, "
              "schur %.1f%%, phase_walk %.1f%%, first_visit %.1f%%\n"
              "  derivative build %.3f ms vs phase walk %.3f ms per draw\n",
              100 * clock.power_table / clock.draw_total,
              100 * clock.shortcut_transition / clock.draw_total,
              100 * clock.schur_transition / clock.draw_total,
              100 * clock.phase_walk / clock.draw_total,
              100 * clock.first_visit / clock.draw_total, per_draw_ms(derivative),
              per_draw_ms(clock.phase_walk));
}

}  // namespace perfbench
