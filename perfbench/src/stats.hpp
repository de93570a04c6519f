// Order statistics for the benchmark's timings.
//
// Every timing the benchmark prints is a median plus the highest
// percentile that still has at least ten samples beyond it, each
// reported with its sample count.  Percentiles interpolate linearly
// between closest ranks (the "type 7" rule: p-th value sits at rank
// 1 + p * (n - 1)).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Interpolated percentile of an ascending-sorted sample, p in [0, 1].
inline double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Samples strictly beyond the p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double at = std::ceil(p * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(std::max(0.0, at));
}

/// Highest percentile of {99.9, 99, 90, 50} with >= 10 samples beyond
/// it, as a fraction; 0 when even the median has fewer.
inline double supported_tail(std::size_t n) {
  for (const double p : {0.999, 0.99, 0.90, 0.50})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_p = 0.0;  ///< supported_tail(n)
  double tail = 0.0;    ///< value at tail_p (the median when tail_p == 0)

  /// Percentile p of the summarised sample (kept sorted).
  double at(double p) const { return sorted_percentile(sorted, p); }
  std::vector<double> sorted;
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  std::sort(values.begin(), values.end());
  s.n = values.size();
  s.p50 = sorted_percentile(values, 0.50);
  s.q1 = sorted_percentile(values, 0.25);
  s.q3 = sorted_percentile(values, 0.75);
  s.tail_p = supported_tail(s.n);
  s.tail = sorted_percentile(values, s.tail_p > 0 ? s.tail_p : 0.5);
  s.sorted = std::move(values);
  return s;
}

inline double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

/// Tail percentile p of a time-ordered series, robust to one stall: the
/// series is cut into up to `windows` consecutive windows (each keeping
/// >= 10 samples beyond p) and the median of the windows' percentiles
/// is returned.  With too few samples for two windows it is the plain
/// percentile.
inline double windowed_percentile(const std::vector<double>& ordered, double p,
                                  std::size_t windows) {
  const double per_window_min = std::ceil(10.0 / (1.0 - p));
  const std::size_t w = std::min<std::size_t>(
      windows, static_cast<std::size_t>(static_cast<double>(ordered.size()) / per_window_min));
  if (w < 2) return summarize(ordered).at(p);
  std::vector<double> tails;
  for (std::size_t i = 0; i < w; ++i) {
    const auto lo = ordered.begin() + static_cast<std::ptrdiff_t>(i * ordered.size() / w);
    const auto hi = ordered.begin() + static_cast<std::ptrdiff_t>((i + 1) * ordered.size() / w);
    tails.push_back(summarize({lo, hi}).at(p));
  }
  return median(std::move(tails));
}

/// Checks the helper on inputs with known answers; false on a mismatch.
inline bool stats_self_test() {
  const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-9 * (1 + std::abs(b)); };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  const Summary a = summarize(hundred);
  if (a.n != 100 || !near(a.p50, 50.5) || !near(a.q1, 25.75) || !near(a.q3, 75.25)) return false;
  if (!near(a.tail_p, 0.90) || !near(a.tail, 90.1)) return false;

  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back(i);
  const Summary b = summarize(thousand);
  if (!near(b.tail_p, 0.99) || !near(b.tail, 989.01) || !near(b.at(0.999), 998.001)) return false;

  const Summary c = summarize({3.0, 1.0, 2.0});
  if (c.n != 3 || !near(c.p50, 2.0) || c.tail_p != 0.0 || !near(c.tail, 2.0)) return false;
  if (summarize({}).n != 0 || supported_tail(19) != 0.0 || supported_tail(20) != 0.5) return false;
  if (supported_tail(10000) != 0.999 || samples_beyond(10000, 0.999) != 10) return false;

  // Four windows of 0..999; one window holds a stall the median ignores.
  std::vector<double> series;
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 1000; ++i) series.push_back(w == 2 && i == 500 ? 1e9 : i);
  if (!near(windowed_percentile(series, 0.99, 4), 989.01)) return false;
  return near(windowed_percentile(thousand, 0.99, 8), 989.01);
}

}  // namespace perfbench
