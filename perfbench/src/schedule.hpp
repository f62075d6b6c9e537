#pragma once

// Seeded open-loop arrival schedules: Poisson arrival times and Zipf
// fingerprint popularity. Everything is a pure function of the seed, so a
// workload replays the same operations in the same order on every run.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int sample(cliquest::util::Rng& rng) const;
  double probability(int rank) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets in seconds of a Poisson process at `rate` per second over
/// [0, duration): exponential gaps drawn from `rng`.
std::vector<double> poisson_arrivals(double rate, double duration,
                                     cliquest::util::Rng& rng);

}  // namespace perfbench
