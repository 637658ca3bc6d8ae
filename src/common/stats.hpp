// Descriptive statistics used throughout the characterization study:
// box-and-whiskers summaries (Figs. 3 and 4 of the paper) and coefficient of
// variation (Fig. 6).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rh::common {

/// Five-number summary plus mean, as plotted by the paper's box-and-whiskers
/// figures: box = [q1, q3], line = median, whiskers = [min, max], marker = mean.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;
};

/// Mean of `xs`; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population standard deviation of `xs`; 0 for fewer than two samples.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Coefficient of variation: stddev / mean (the paper's Fig. 6 x-axis).
/// Returns 0 when the mean is 0.
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);

/// Linear-interpolated quantile of *sorted* data, q in [0, 1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Box-and-whiskers summary. Copies and sorts internally.
/// Quartile convention matches the paper's caption: q1/q3 are the medians of
/// the lower and upper halves of the ordered data (Tukey hinges).
[[nodiscard]] BoxStats box_stats(std::span<const double> xs);

}  // namespace rh::common
