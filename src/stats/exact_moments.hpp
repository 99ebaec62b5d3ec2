// Order- and partition-independent streaming moments.
//
// Welford's running mean (stats/welford.hpp) rounds after every sample, so
// two accumulators fed the same samples in different orders, or split
// differently across shards and merged, can disagree in the last bits.
// ExactMoments keeps Σx and Σx² *exactly* instead, as nonoverlapping
// floating-point expansions (Shewchuk 1997, the algorithm behind Python's
// math.fsum), and rounds only when a moment is read. Its mean and variance
// therefore depend on the multiset of samples alone: how they were sharded,
// and in which order shards merged, cannot change a single bit.
//
// Samples are assumed finite and below ~1e154 in magnitude (so x² does not
// overflow); a non-finite sample propagates into the moments as it would
// through naive summation.
#pragma once

#include <cstdint>
#include <vector>

namespace sjs {

/// Exact running sum of doubles; value() is the correctly rounded total.
class ExactSum {
 public:
  void add(double x);
  void merge(const ExactSum& other);
  /// The exact sum rounded once to the nearest double (ties to even).
  double value() const;
  /// The expansion itself: nonoverlapping, increasing magnitude, exact sum
  /// equal to the running total.
  const std::vector<double>& partials() const { return partials_; }

 private:
  std::vector<double> partials_;
  double nonfinite_ = 0.0;  // naive sum of the non-finite samples
};

/// Count, min, max, mean and variance from exact power sums; the read API
/// mirrors Welford's.
class ExactMoments {
 public:
  void add(double x);
  void merge(const ExactMoments& other);

  std::uint64_t count() const { return n_; }
  double mean() const;
  /// Population variance (divide by n).
  double variance_population() const;
  /// Sample variance (divide by n-1); 0 when fewer than two samples.
  double variance_sample() const;
  double stddev_sample() const;
  /// Standard error of the mean.
  double sem() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  /// n·Σx² − (Σx)², rounded once: n² times the population variance.
  double scaled_m2() const;

  std::uint64_t n_ = 0;
  ExactSum sum_;
  ExactSum sum_sq_;  // each x² enters as its exact two-product pair
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace sjs
