// Unit checks of the benchmark's own code: the percentile rule and the
// seed-determinism of the Poisson/Zipf schedules. run.py runs them before
// every measurement.

#include <cmath>
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "schedule.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentiles() {
  const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  expect(near(quantile(four, 0.0), 1.0), "q0 is the minimum");
  expect(near(quantile(four, 1.0), 4.0), "q1 is the maximum");
  expect(near(median(four), 2.5), "even-size median interpolates");
  expect(near(quantile(four, 0.25), 1.75), "type-7 interpolation at q = 0.25");
  expect(near(median({7.0}), 7.0), "single sample");
  expect(quantile({}, 0.5) == 0.0, "empty sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.9), 91.0), "p90 of 1..101");
  expect(samples_beyond(101, 0.9) == 10, "ten samples beyond p90 of 101");
  expect(samples_beyond(1001, 0.99) == 10, "ten samples beyond p99 of 1001");
  expect(samples_beyond(1000, 0.99) == 9, "nine samples beyond p99 of 1000");
}

void schedules() {
  cliquest::util::Rng a(11), b(11), c(12);
  const std::vector<double> ta = poisson_arrivals(1000.0, 2.0, a);
  expect(ta == poisson_arrivals(1000.0, 2.0, b), "Poisson arrivals repeat per seed");
  expect(ta != poisson_arrivals(1000.0, 2.0, c), "Poisson arrivals differ across seeds");
  // 2000 expected arrivals, sd ~45: a 5-sigma band.
  expect(std::fabs(static_cast<double>(ta.size()) - 2000.0) < 225.0, "Poisson rate");
  bool ordered = true;
  for (std::size_t i = 1; i < ta.size(); ++i) ordered = ordered && ta[i - 1] < ta[i];
  expect(ordered && !ta.empty() && ta.back() < 2.0, "arrivals increase inside the window");

  const Zipf zipf(48, 1.1);
  double total = 0.0;
  bool decreasing = true;
  for (int r = 0; r < zipf.size(); ++r) {
    total += zipf.probability(r);
    if (r > 0) decreasing = decreasing && zipf.probability(r) < zipf.probability(r - 1);
  }
  expect(near(total, 1.0) && decreasing, "Zipf probabilities decrease and sum to 1");
  cliquest::util::Rng za(5), zb(5);
  std::vector<int> counts(48, 0);
  bool same = true;
  for (int i = 0; i < 20000; ++i) {
    const int r = zipf.sample(za);
    same = same && r == zipf.sample(zb);
    ++counts[static_cast<std::size_t>(r)];
  }
  expect(same, "Zipf draws repeat per seed");
  const double p0 = zipf.probability(0);
  const double sd = std::sqrt(20000.0 * p0 * (1.0 - p0));
  expect(std::fabs(counts[0] - 20000.0 * p0) < 5.0 * sd, "Zipf rank-0 frequency");

  const OpenLoopPlan p1 = make_serve_plan(3, 1.0), p2 = make_serve_plan(3, 1.0);
  bool plans_equal = p1.batches.size() == p2.batches.size() &&
                     p1.writes.size() == p2.writes.size();
  for (std::size_t i = 0; plans_equal && i < p1.batches.size(); ++i)
    plans_equal = p1.batches[i].due == p2.batches[i].due &&
                  p1.batches[i].slot == p2.batches[i].slot &&
                  p1.batches[i].draws == p2.batches[i].draws &&
                  p1.batches[i].oracle == p2.batches[i].oracle;
  for (std::size_t i = 0; plans_equal && i < p1.writes.size(); ++i)
    plans_equal = p1.writes[i].due == p2.writes[i].due &&
                  p1.writes[i].slot == p2.writes[i].slot &&
                  p1.writes[i].seed == p2.writes[i].seed &&
                  p1.fresh_entry(p1.writes[i]).graph->edge_count() ==
                      p2.fresh_entry(p2.writes[i]).graph->edge_count();
  for (std::size_t i = 0; plans_equal && i < p1.slots.size(); ++i)
    plans_equal = p1.slots[i].graph->edge_count() == p2.slots[i].graph->edge_count() &&
                  p1.slots[i].options.seed == p2.slots[i].options.seed;
  expect(plans_equal, "serve_mixed plan repeats per seed");
  const OpenLoopPlan p3 = make_serve_plan(4, 1.0);
  expect(p3.batches.size() != p1.batches.size() ||
             p3.slots[0].options.seed != p1.slots[0].options.seed,
         "serve_mixed plan differs across seeds");
}

}  // namespace

int run_selftest() {
  percentiles();
  schedules();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
