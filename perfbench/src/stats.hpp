#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

/// \file stats.hpp
/// The one percentile helper every workload reports through.  A percentile
/// q of n samples is the nearest-rank order statistic: the ceil(q * n)-th
/// smallest sample.  It is *reportable* only when at least kMinBeyond
/// samples lie strictly beyond it, so a p99 needs >= 1000 samples and a
/// median >= 20; otherwise the tail is noise from a handful of points.

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double value = 0;
  std::size_t beyond = 0;  ///< samples strictly past the rank
  bool reportable = false;
};

/// A growable sample set with order statistics.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return v_.size(); }

  /// Nearest-rank percentile, q in (0, 1].  Value 0 for an empty set.
  [[nodiscard]] Quantile at(double q) const {
    Quantile out;
    if (v_.empty()) return out;
    sort();
    const auto n = static_cast<double>(v_.size());
    // 1e-9 keeps a q * n that is integral up to rounding from stepping to
    // the next rank (0.99 * 1000 must give rank 990, not 991).
    auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v_.size());
    out.value = v_[rank - 1];
    out.beyond = v_.size() - rank;
    out.reportable = out.beyond >= kMinBeyond;
    return out;
  }
  [[nodiscard]] double median() const { return at(0.5).value; }

  /// "p50=12.3 p99=45.6 (n=2000)"; a percentile without kMinBeyond samples
  /// past it prints as "n/a" instead of a number.
  [[nodiscard]] std::string describe(double scale = 1.0) const {
    std::string s;
    for (const double q : {0.5, 0.99}) {
      const Quantile p = at(q);
      s += q == 0.5 ? "p50=" : " p99=";
      s += p.reportable ? fmt(p.value * scale) : std::string("n/a");
    }
    return s + " (n=" + std::to_string(v_.size()) + ")";
  }

 private:
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
  }
  void sort() const {
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

}  // namespace perfbench
