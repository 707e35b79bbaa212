#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles: no values");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method='exclusive'): m = n + 1, j = i·m // 4
  // clamped to [1, n-1], interpolate with exact integer weights.
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail tail_percentile(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  auto beyond = [&v](double x) {
    return static_cast<std::size_t>(v.end() - std::upper_bound(v.begin(), v.end(), x));
  };
  t.pct = kTailLadder[0];
  t.value = median(v);
  t.beyond = beyond(t.value);
  for (const double p : kTailLadder) {
    // The p50 rung is the median, so the tail never reads below it.
    const double x = p == 50 ? median(v) : percentile_sorted(v, p);
    const std::size_t b = beyond(x);
    if (b < kTailBeyond) break;
    t = {p, x, b, true};
  }
  return t;
}

}  // namespace perfbench
