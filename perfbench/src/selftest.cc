// Checks the benchmark's own arithmetic: quantiles, the max_qps saturation
// rate and span self time. `python3 perfbench/run.py --selftest` builds and
// runs it (with the steadiness script's checks).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestQuantiles() {
  ExpectNear(Quantile({}, 0.5), 0, "empty input");
  ExpectNear(Quantile({7}, 0.99), 7, "single value");
  ExpectNear(Median({3, 1, 2}), 2, "odd median");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, "even median interpolates");
  // statistics.quantiles([1..10], n=4, method="inclusive") = 3.25, 5.5, 7.75
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  ExpectNear(Quantile(ten, 0.25), 3.25, "first quartile");
  ExpectNear(Quantile(ten, 0.5), 5.5, "second quartile");
  ExpectNear(Quantile(ten, 0.75), 7.75, "third quartile");
  // numpy.percentile(range(1, 101), 99) = 99.01
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Quantile(hundred, 0.99), 99.01, "p99 of 1..100");
  ExpectNear(Quantile(hundred, 0.0), 1, "p0 is the minimum");
  ExpectNear(Quantile(hundred, 1.0), 100, "p100 is the maximum");
  // A missed request (infinite latency) past the percentile's rank leaves
  // the median finite but makes the top quantile infinite.
  std::vector<double> with_miss = {1, 2, 3, INFINITY};
  ExpectNear(Median(with_miss), 2.5, "median ignores one miss");
  Expect(std::isinf(Quantile(with_miss, 0.99)), "p99 reaches the miss");
}

void TestSaturation() {
  // One completion every 10 ms over a 1 s window: 100/s. The ramp (first
  // 200 ms) and anything after the window are not counted.
  std::vector<double> steady;
  for (int i = 0; i < 100; ++i) steady.push_back((i + 0.5) * 0.01);
  ExpectNear(SaturationQps(steady, 1.0), 100, "steady completions");
  std::vector<double> ramp = steady;
  for (int i = 0; i < 50; ++i) ramp.push_back(0.1);  // burst in the ramp
  for (int i = 0; i < 50; ++i) ramp.push_back(1.5);  // drained after it
  ExpectNear(SaturationQps(ramp, 1.0), 100, "ramp and drain are skipped");
  ExpectNear(SaturationQps({}, 1.0), 0, "nothing completed");
  ExpectNear(SaturationQps(steady, 0.0), 0, "a window of no length");
  // Half the capacity reads as half the rate.
  std::vector<double> half;
  for (int i = 0; i < 50; ++i) half.push_back((i + 0.5) * 0.02);
  ExpectNear(SaturationQps(half, 1.0), 50, "half the capacity");
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* layer, int start_ms,
              int end_ms) {
  const Clock::time_point origin{};
  return {id, parent, 1, layer, "span",
          origin + std::chrono::milliseconds(start_ms),
          origin + std::chrono::milliseconds(end_ms)};
}

void TestSelfTime() {
  // bench root [0, 100) with serving children [10, 30) and [20, 50)
  // (overlapping: 40 ms covered) and a core grandchild [25, 45) inside
  // the second; a storage child [90, 120) runs past the root's end.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "bench", 0, 100),   MakeSpan(2, 1, "serving", 10, 30),
      MakeSpan(3, 1, "serving", 20, 50), MakeSpan(4, 3, "core", 25, 45),
      MakeSpan(5, 1, "storage", 90, 120),
  };
  const auto self = SelfSecondsByLayer(spans);
  ExpectNear(self.at("bench"), 0.050, "root minus covered [10,50)+[90,100)");
  ExpectNear(self.at("serving"), 0.020 + 0.010, "serving self time");
  ExpectNear(self.at("core"), 0.020, "leaf self time is its duration");
  ExpectNear(self.at("storage"), 0.030, "storage self time");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestSaturation();
  perfbench::TestSelfTime();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
