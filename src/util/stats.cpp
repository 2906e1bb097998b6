#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace namecoh {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel merge.
  double delta = other.mean_ - mean_;
  std::uint64_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ = n;
}

double Accumulator::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const { return count_ == 0 ? 0.0 : min_; }
double Accumulator::max() const { return count_ == 0 ? 0.0 : max_; }

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      counts_(boundaries_.size() + 1, 0) {
  NAMECOH_CHECK(!boundaries_.empty(), "histogram needs >= 1 boundary");
  NAMECOH_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
                    std::adjacent_find(boundaries_.begin(),
                                       boundaries_.end()) ==
                        boundaries_.end(),
                "histogram boundaries must be strictly increasing");
}

void Histogram::add(double x) {
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  counts_[static_cast<std::size_t>(it - boundaries_.begin())] += 1;
  observed_max_ = total_ == 0 ? x : std::max(observed_max_, x);
  ++total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // q = 0 asks for the minimum, which lies in the first non-empty bucket —
  // not at 0.0, which the q*total target used to report even when every
  // sample sat far above the lowest boundary.
  if (q == 0.0) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) return i == 0 ? 0.0 : boundaries_[i - 1];
    }
  }
  // The overflow bucket has no upper boundary; interpolate against the
  // largest value actually observed instead of an arbitrary extrapolation.
  const double overflow_hi = std::max(observed_max_, boundaries_.back());
  double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      double lo = i == 0 ? 0.0 : boundaries_[i - 1];
      double hi = i < boundaries_.size() ? boundaries_[i] : overflow_hi;
      if (counts_[i] == 0) return lo;
      double within = (target - cum) / static_cast<double>(counts_[i]);
      return lo + within * (hi - lo);
    }
    cum = next;
  }
  return overflow_hi;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  double lo = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      lo = i < boundaries_.size() ? boundaries_[i] : lo;
      continue;
    }
    if (i < boundaries_.size()) {
      os << '[' << lo << ',' << boundaries_[i] << "): " << counts_[i] << ' ';
      lo = boundaries_[i];
    } else {
      os << '[' << lo << ",inf): " << counts_[i] << ' ';
    }
  }
  return os.str();
}

std::uint64_t CategoryCounter::get(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

std::uint64_t CategoryCounter::total() const {
  std::uint64_t sum = 0;
  for (const auto& [_, n] : counts_) sum += n;
  return sum;
}

}  // namespace namecoh
