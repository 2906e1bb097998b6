// Statistics accumulators used by the coherence analyzer and the benches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace namecoh {

/// Streaming mean/variance/min/max (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Ratio counter: k successes out of n trials. The basic unit of every
/// coherence measurement ("fraction of probes that resolved coherently").
class FractionCounter {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }
  void merge(const FractionCounter& other) {
    trials_ += other.trials_;
    successes_ += other.successes_;
  }

  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] std::uint64_t successes() const { return successes_; }
  /// successes/trials; 0 trials yields 0 ("vacuously incoherent" never
  /// appears in reports because probe sets are non-empty by construction).
  [[nodiscard]] double fraction() const {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(successes_) /
                              static_cast<double>(trials_);
  }

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

/// Fixed-boundary histogram over non-negative values (e.g. resolution path
/// lengths). Values beyond the last boundary land in an overflow bucket.
class Histogram {
 public:
  /// boundaries must be strictly increasing; bucket i holds values in
  /// [boundaries[i-1], boundaries[i]) with an implicit leading 0.
  explicit Histogram(std::vector<double> boundaries);

  void add(double x);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }
  /// Largest value ever added; anchors the overflow bucket in quantile().
  [[nodiscard]] double observed_max() const {
    return total_ == 0 ? 0.0 : observed_max_;
  }
  /// Approximate quantile (linear within buckets). q in [0,1]; q = 0
  /// reports the first non-empty bucket's lower edge, q = 1 at most the
  /// observed maximum.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<double> boundaries_;
  std::vector<std::uint64_t> counts_;  // boundaries_.size() + 1 buckets
  std::uint64_t total_ = 0;
  double observed_max_ = 0.0;
};

/// Counts occurrences per string key; used for per-category breakdowns.
class CategoryCounter {
 public:
  void add(const std::string& key, std::uint64_t n = 1) { counts_[key] += n; }
  [[nodiscard]] std::uint64_t get(const std::string& key) const;
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::map<std::string, std::uint64_t> counts_;
};

}  // namespace namecoh
