// Order statistics used by the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hlsperf {

/// Nearest-rank percentile: the smallest sample x such that at least
/// q * n samples are <= x. Exactly ceil((1 - q) * n) - 1 samples or fewer lie
/// strictly beyond it, so a p99.9 over n values has about n / 1000 samples
/// beyond it. Returns 0 for an empty input.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Samples strictly greater than `threshold` (the tail count reported next to
/// a percentile).
[[nodiscard]] inline std::size_t count_above(const std::vector<double>& values,
                                             double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

/// Median; the mean of the two middle values for an even count. Returns 0
/// for an empty input.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace hlsperf
