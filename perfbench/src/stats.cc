#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SaturationQps(const std::vector<double>& completion_s,
                     double length_s) {
  const double from_s = length_s / 5;
  if (!(length_s > from_s)) return 0;
  const auto counted = std::count_if(
      completion_s.begin(), completion_s.end(),
      [&](double t) { return t >= from_s && t < length_s; });
  return static_cast<double>(counted) / (length_s - from_s);
}

}  // namespace perfbench
