// Order statistics and the max_qps throughput rule used by the benchmark's
// reports. Kept free of library dependencies so perfbench_selftest can
// check them in isolation.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between
/// closest ranks (numpy's default; Python's statistics.quantiles with
/// method="inclusive"). +infinity sorts last, so a failed request recorded
/// as infinite latency pushes the upper quantiles to infinity. 0 for an
/// empty input.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Requests completed per second over the steady part of a saturation
/// window `length_s` seconds long. `completion_s` holds each completion's
/// time in seconds since the window opened. The first fifth of the window
/// is skipped: that is where the first requests fill the lanes. Completions
/// from `length_s` on are not counted. 0 for a window of no length.
double SaturationQps(const std::vector<double>& completion_s,
                     double length_s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
