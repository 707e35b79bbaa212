#pragma once

// Order statistics the benchmark reports: median, quartiles (the same
// definition as Python's statistics.quantiles(values, n=4)), and the tail
// rule "highest percentile with at least ten samples beyond it".

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

double median(std::vector<double> v);

/// Quartiles by the 'exclusive' method of Python's statistics.quantiles.
/// Needs at least one value (a single value is returned three times).
std::array<double, 3> quartiles(std::vector<double> v);

/// Nearest-rank percentile (p in (0, 100]) of a sorted, non-empty vector.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The percentile ladder the tail is chosen from.
inline constexpr std::array<double, 6> kTailLadder = {50, 75, 90, 95, 99, 99.9};
/// Samples that must lie strictly beyond the tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

struct Tail {
  double pct = 0.0;         ///< which percentile (from kTailLadder)
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly greater than value
  bool enough = false;      ///< false: even p50 has < kTailBeyond beyond it
};

/// Highest ladder percentile with >= kTailBeyond samples strictly beyond
/// it; falls back to p50 (enough = false) when no rung qualifies. The p50
/// rung is the median; the others are nearest-rank percentiles.
Tail tail_percentile(std::vector<double> v);

}  // namespace perfbench
