#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.hpp"

namespace rh::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  RH_EXPECTS(q >= 0.0 && q <= 1.0);
  RH_EXPECTS(!sorted.empty());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace {

// Median of sorted[first, last).
double median_range(std::span<const double> sorted, std::size_t first, std::size_t last) {
  const std::size_t n = last - first;
  RH_EXPECTS(n > 0);
  const std::size_t mid = first + n / 2;
  if (n % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

}  // namespace

BoxStats box_stats(std::span<const double> xs) {
  BoxStats s;
  s.count = xs.size();
  if (xs.empty()) return s;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();

  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = mean(sorted);
  s.median = median_range(sorted, 0, n);
  if (n == 1) {
    s.q1 = s.q3 = s.median;
  } else {
    // Tukey hinges: medians of the lower and upper halves; the middle element
    // of an odd-length set is excluded from both halves, matching the paper's
    // caption ("medians of the first and second half of the ordered set").
    const std::size_t half = n / 2;
    s.q1 = median_range(sorted, 0, half);
    s.q3 = median_range(sorted, n - half, n);
  }
  return s;
}

}  // namespace rh::common
