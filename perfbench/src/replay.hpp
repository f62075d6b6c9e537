#pragma once

// Traced replay of one congested_clique draw.
//
// The replay walks the same phase loop as core::CongestedCliqueTreeSampler
// (prepared sampler, Schur cache off) through the modules' public functions
// — walk::transition_matrix, schur::schur_transition,
// schur::shortcut_transition, linalg::power_table, core::build_phase_walk and
// schur::sample_first_visit_neighbor — timing each call from here, so the
// library itself carries no instrumentation. Draw i uses the engine's stream
// splitmix64(splitmix64(seed) + i + 1); the benchmark checks that every
// replayed tree and meter equals the engine's for the same (seed, index).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cclique/meter.hpp"
#include "core/options.hpp"
#include "graph/graph.hpp"
#include "graph/spanning.hpp"
#include "linalg/matrix.hpp"
#include "stats.hpp"
#include "walk/prepared.hpp"

namespace perfbench {

/// Seconds spent inside each traced call, summed over calls.
struct LayerClock {
  // prepare()
  double transition_matrix = 0.0;    // walk::transition_matrix (phase 1)
  double shortcut_full = 0.0;        // schur::shortcut_transition, S = V
  double power_table_prepare = 0.0;  // linalg::power_table, phase 1
  std::int64_t prepares = 0;
  // per-phase derivative build (phases 2..)
  double schur_transition = 0.0;
  double shortcut_transition = 0.0;
  double power_table = 0.0;
  double power_table_flops = 0.0;  // computed: 2 m^3 per squaring
  // walk filling
  double phase_walk = 0.0;   // core::build_phase_walk
  double first_visit = 0.0;  // schur::sample_first_visit_neighbor
  double draw_total = 0.0;   // whole replayed draws
  std::int64_t draws = 0;

  void merge(const LayerClock& other);
};

/// The per-graph state prepare() builds: the phase-1 matrices, their power
/// table and its row CDFs.
struct ReplayPrepared {
  std::shared_ptr<const cliquest::graph::Graph> graph;
  cliquest::core::SamplerOptions options;
  int rho = 0;
  std::int64_t target_length = 0;
  int levels = 0;
  cliquest::linalg::Matrix full_transition;
  cliquest::linalg::Matrix full_shortcut;
  std::vector<cliquest::linalg::Matrix> full_powers;
  cliquest::walk::PreparedPowers prepared_powers;
};

/// Seed-exact cost counts of one draw.
struct DrawCounts {
  cliquest::cclique::Meter meter;
  std::int64_t phases = 0;
  std::int64_t walk_steps = 0;
  std::int64_t levels = 0;
  std::int64_t extensions = 0;
};

struct ReplayDraw {
  cliquest::graph::TreeEdges tree;
  DrawCounts counts;
};

ReplayPrepared replay_prepare(std::shared_ptr<const cliquest::graph::Graph> graph,
                              const cliquest::core::SamplerOptions& options,
                              LayerClock& clock);

ReplayDraw replay_draw(const ReplayPrepared& prepared, std::uint64_t seed,
                       std::int64_t draw_index, LayerClock& clock);

/// True when both meters hold the same categories with equal rounds,
/// messages and events.
bool same_meter(const cliquest::cclique::Meter& a, const cliquest::cclique::Meter& b);

/// Seed-exact counts summed over a fixed set of draws.
struct CountTotals {
  cliquest::cclique::Meter meter;
  std::int64_t rounds = 0;
  std::int64_t phases = 0;
  std::int64_t walk_steps = 0;
  std::int64_t levels = 0;
  std::int64_t extensions = 0;
  int draws = 0;

  void add(const DrawCounts& counts);
  /// rounds_per_draw plus the cclique.* and core.* counts, by report name;
  /// core.levels/core.extensions only when the replay supplied them.
  std::map<std::string, double> named(bool with_levels) const;
};

/// The counts as per-layer metrics (rounds_per_draw is end-to-end).
void report_counts(const CountTotals& totals, Report& report);

/// Per-draw and per-prepare layer times of the traced replay.
void report_replay_layers(const LayerClock& clock, Report& report);

}  // namespace perfbench
