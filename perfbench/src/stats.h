// Order statistics for the benchmark's in-run aggregation.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] over sorted positions
/// (q = 0.5 is the median); 0 when empty.
double quantile(std::vector<double> values, double q);

/// The tail rule: the highest percentile (in whole percent, at most 99)
/// that leaves at least 10 samples above it, or 50 (the median alone)
/// below 40 samples.
int tail_percentile(std::size_t samples);

}  // namespace perfbench
