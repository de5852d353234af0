#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int tail_percentile(std::size_t samples) {
  if (samples < 40) return 50;
  for (int p = 99; p > 50; --p) {
    // Samples strictly above the p-th percentile.
    double above = static_cast<double>(samples) * (100 - p) / 100.0;
    if (above >= 10.0) return p;
  }
  return 50;
}

}  // namespace perfbench
