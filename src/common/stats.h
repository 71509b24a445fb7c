// Statistics collectors used by the experiment harness: empirical CDFs
// (the paper's primary presentation format), running summaries, and
// fixed-width histograms.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ppr {

// Collects samples and answers empirical-distribution queries. All query
// methods operate on a sorted copy maintained lazily, so interleaving
// Add() and queries is permitted.
class CdfCollector {
 public:
  void Add(double value);
  void AddCount(double value, std::size_t count);

  std::size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;

  // Empirical quantile via nearest-rank; q in [0, 1].
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  // Fraction of samples <= x (the CDF evaluated at x).
  double FractionAtOrBelow(double x) const;

  // Fraction of samples > x (the complementary CDF, as in Figs. 14/15).
  double FractionAbove(double x) const;

  // Evenly spaced (x, F(x)) points suitable for printing a CDF series.
  std::vector<std::pair<double, double>> CdfPoints(std::size_t num_points) const;

  const std::vector<double>& Samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Integer-keyed histogram; used for Hamming-distance distributions where
// the support is {0..32}.
class IntHistogram {
 public:
  void Add(long key, std::size_t count = 1);
  std::size_t Total() const { return total_; }
  std::size_t CountAt(long key) const;

  // Cumulative fraction of mass at keys <= key.
  double CdfAt(long key) const;
  // Fraction of mass at keys > key.
  double CcdfAbove(long key) const;

  const std::map<long, std::size_t>& Buckets() const { return buckets_; }

 private:
  std::map<long, std::size_t> buckets_;
  std::size_t total_ = 0;
};

// Formats a CDF as gnuplot-style two-column text, matching how the
// paper's figures are plotted. Used by the bench binaries.
std::string FormatCdf(const CdfCollector& cdf, std::size_t num_points,
                      const std::string& label);

}  // namespace ppr
