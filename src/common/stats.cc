#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>

namespace ppr {

void CdfCollector::Add(double value) {
  samples_.push_back(value);
  sorted_valid_ = false;
}

void CdfCollector::AddCount(double value, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) samples_.push_back(value);
  sorted_valid_ = false;
}

void CdfCollector::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double CdfCollector::Min() const {
  assert(!samples_.empty());
  EnsureSorted();
  return sorted_.front();
}

double CdfCollector::Max() const {
  assert(!samples_.empty());
  EnsureSorted();
  return sorted_.back();
}

double CdfCollector::Mean() const {
  assert(!samples_.empty());
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double CdfCollector::Quantile(double q) const {
  assert(!samples_.empty());
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

double CdfCollector::FractionAtOrBelow(double x) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double CdfCollector::FractionAbove(double x) const {
  return 1.0 - FractionAtOrBelow(x);
}

std::vector<std::pair<double, double>> CdfCollector::CdfPoints(
    std::size_t num_points) const {
  std::vector<std::pair<double, double>> points;
  if (samples_.empty() || num_points == 0) return points;
  EnsureSorted();
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  points.reserve(num_points);
  if (num_points == 1 || hi == lo) {
    points.emplace_back(lo, FractionAtOrBelow(lo));
    return points;
  }
  for (std::size_t i = 0; i < num_points; ++i) {
    // Pin the final grid point to the max sample exactly so the CDF
    // reaches 1.0 despite floating-point rounding of the interpolation.
    const double x = (i == num_points - 1)
                         ? hi
                         : lo + (hi - lo) * static_cast<double>(i) /
                                    static_cast<double>(num_points - 1);
    points.emplace_back(x, FractionAtOrBelow(x));
  }
  return points;
}

void IntHistogram::Add(long key, std::size_t count) {
  buckets_[key] += count;
  total_ += count;
}

std::size_t IntHistogram::CountAt(long key) const {
  const auto it = buckets_.find(key);
  return it == buckets_.end() ? 0 : it->second;
}

double IntHistogram::CdfAt(long key) const {
  if (total_ == 0) return 0.0;
  std::size_t below = 0;
  for (const auto& [k, c] : buckets_) {
    if (k > key) break;
    below += c;
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double IntHistogram::CcdfAbove(long key) const { return 1.0 - CdfAt(key); }

std::string FormatCdf(const CdfCollector& cdf, std::size_t num_points,
                      const std::string& label) {
  std::ostringstream out;
  out << "# " << label << "\n";
  for (const auto& [x, f] : cdf.CdfPoints(num_points)) {
    out << x << "\t" << f << "\n";
  }
  return out.str();
}

}  // namespace ppr
