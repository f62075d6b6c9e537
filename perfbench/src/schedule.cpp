#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Zipf::Zipf(int n, double s) {
  if (n < 1) throw std::invalid_argument("Zipf: need at least one rank");
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

int Zipf::sample(cliquest::util::Rng& rng) const {
  const double u = rng.next_double();
  return static_cast<int>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double Zipf::probability(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

std::vector<double> poisson_arrivals(double rate, double duration,
                                     cliquest::util::Rng& rng) {
  if (rate <= 0.0) throw std::invalid_argument("poisson_arrivals: rate must be > 0");
  std::vector<double> times;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) break;
    times.push_back(t);
  }
  return times;
}

}  // namespace perfbench
