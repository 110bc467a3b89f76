// Order statistics shared by the benchmark and its self-test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Ceil-rank percentile: the value at rank ceil(p/100 * n) (1-based,
/// clamped to [1, n]) of the sorted sample — no interpolation, so every
/// reported percentile is a value that was actually observed. 0 for an
/// empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return values[std::min(n, std::max<size_t>(rank, 1)) - 1];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// 0 for an empty sample.
inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

}  // namespace perfbench
