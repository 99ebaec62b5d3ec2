#include "stats/exact_moments.hpp"

#include <algorithm>
#include <cmath>

#include "util/fp.hpp"
#include "util/vec.hpp"

namespace sjs {

void ExactSum::add(double x) {
  if (!std::isfinite(x)) {
    nonfinite_ += x;
    return;
  }
  // Grow-expansion with zero elimination: each two-sum splits x + p into its
  // rounded sum and the exact rounding error, keeping only nonzero errors.
  std::size_t kept = 0;
  for (std::size_t j = 0; j < partials_.size(); ++j) {
    double y = partials_[j];
    if (std::abs(x) < std::abs(y)) std::swap(x, y);
    const double hi = x + y;
    const double lo = y - (hi - x);
    if (!fp::is_zero(lo)) partials_[kept++] = lo;
    x = hi;
  }
  partials_.resize(kept);
  util::append(partials_, x);
}

void ExactSum::merge(const ExactSum& other) {
  for (double p : other.partials_) add(p);
  nonfinite_ += other.nonfinite_;
}

double ExactSum::value() const {
  if (!fp::is_zero(nonfinite_)) return nonfinite_;
  std::size_t n = partials_.size();
  if (n == 0) return 0.0;
  // Sum from the top down until the running sum turns inexact; the first
  // nonzero error `lo` then decides the rounding.
  double hi = partials_[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials_[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (!fp::is_zero(lo)) break;
  }
  // Half-even rounding across partials: when the error and the next partial
  // below share a sign, the exact sum lies past the halfway point that the
  // two-sum rounded to even, so round away instead.
  if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                (lo > 0.0 && partials_[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (fp::exact_eq(y, x - hi)) hi = x;
  }
  return hi;
}

namespace {
/// Adds a·b exactly: the rounded product plus its fma-recovered error.
void add_product(ExactSum& sum, double a, double b) {
  const double p = a * b;
  sum.add(p);
  sum.add(std::fma(a, b, -p));
}
}  // namespace

void ExactMoments::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_.add(x);
  add_product(sum_sq_, x, x);
}

void ExactMoments::merge(const ExactMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  n_ += other.n_;
  sum_.merge(other.sum_);
  sum_sq_.merge(other.sum_sq_);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double ExactMoments::mean() const {
  return n_ ? sum_.value() / static_cast<double>(n_) : 0.0;
}

double ExactMoments::scaled_m2() const {
  const double q = sum_sq_.value();
  if (!std::isfinite(q)) return q;
  // n·Σx² − (Σx)² evaluated exactly over the expansions' partials (count
  // below 2^53, so n converts exactly), then rounded once. Exact
  // evaluation also removes the cancellation a rounded Σx² − (Σx)²/n
  // suffers when the spread is small against the mean.
  ExactSum d;
  const double n = static_cast<double>(n_);
  for (double p : sum_sq_.partials()) add_product(d, n, p);
  const std::vector<double>& s = sum_.partials();
  for (double a : s) {
    for (double b : s) add_product(d, -a, b);
  }
  return std::max(0.0, d.value());
}

double ExactMoments::variance_population() const {
  if (n_ == 0) return 0.0;
  const double n = static_cast<double>(n_);
  return scaled_m2() / (n * n);
}

double ExactMoments::variance_sample() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  return scaled_m2() / (n * (n - 1.0));
}

double ExactMoments::stddev_sample() const {
  return std::sqrt(variance_sample());
}

double ExactMoments::sem() const {
  return n_ > 1 ? stddev_sample() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

}  // namespace sjs
