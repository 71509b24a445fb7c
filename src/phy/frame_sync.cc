#include "phy/frame_sync.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>

namespace ppr::phy {
namespace {

// Complex sequences below are interleaved (re, im) doubles.

// exp(-2*pi*i*k/size) for k < size/2, for the FFT of size 2^log2_size.
// Each table is built on first use and never changes.
const std::vector<double>& Twiddles(int log2_size) {
  static std::array<std::once_flag, 64> built;
  static std::array<std::vector<double>, 64> tables;
  std::call_once(built[log2_size], [log2_size] {
    const std::size_t size = std::size_t{1} << log2_size;
    auto& table = tables[log2_size];
    table.resize(size);
    for (std::size_t k = 0; k < size / 2; ++k) {
      const double theta = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(size);
      table[2 * k] = std::cos(theta);
      table[2 * k + 1] = std::sin(theta);
    }
  });
  return tables[log2_size];
}

// Unscaled forward DFT in place, radix 2, of a power-of-two number of
// points. FftDif takes natural order and leaves bit-reversed order;
// FftDit takes bit-reversed order and leaves natural order. A product of
// two FftDif spectra is thus transformed by FftDit with no reordering.
void FftDif(std::vector<double>& a) {
  const std::size_t size = a.size() / 2;
  const double* w = Twiddles(std::countr_zero(size)).data();
  for (std::size_t half = size / 2; half >= 1; half /= 2) {
    const std::size_t stride = 2 * (size / (2 * half));
    for (std::size_t start = 0; start < size; start += 2 * half) {
      double* u = &a[2 * start];
      double* v = u + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 2) {
        const double wr = w[k / 2 * stride];
        const double wi = w[k / 2 * stride + 1];
        const double dr = u[k] - v[k];
        const double di = u[k + 1] - v[k + 1];
        u[k] += v[k];
        u[k + 1] += v[k + 1];
        v[k] = wr * dr - wi * di;
        v[k + 1] = wr * di + wi * dr;
      }
    }
  }
}

void FftDit(std::vector<double>& a) {
  const std::size_t size = a.size() / 2;
  const double* w = Twiddles(std::countr_zero(size)).data();
  for (std::size_t half = 1; half < size; half *= 2) {
    const std::size_t stride = 2 * (size / (2 * half));
    for (std::size_t start = 0; start < size; start += 2 * half) {
      double* u = &a[2 * start];
      double* v = u + 2 * half;
      for (std::size_t k = 0; k < 2 * half; k += 2) {
        const double wr = w[k / 2 * stride];
        const double wi = w[k / 2 * stride + 1];
        const double tr = wr * v[k] - wi * v[k + 1];
        const double ti = wr * v[k + 1] + wi * v[k];
        v[k] = u[k] - tr;
        v[k + 1] = u[k + 1] - ti;
        u[k] += tr;
        u[k + 1] += ti;
      }
    }
  }
}

// Admission slack, relative to the FFT block's energy E_block: the
// rounding error of the FFT's |correlation|^2 is far below 1e-9 of
// E_ref * E_block, and that of the running window energy far below 1e-9
// of E_block, at every block size used here.
constexpr double kRelativeSlack = 1e-9;

}  // namespace

WaveformCorrelator::WaveformCorrelator(SampleVec reference)
    : reference_(std::move(reference)) {
  for (const auto& s : reference_) reference_energy_ += std::norm(s);
}

double WaveformCorrelator::ScoreAt(const SampleVec& rx, std::size_t n) const {
  return ScoreAt(rx, n, nullptr);
}

double WaveformCorrelator::ScoreAt(const SampleVec& rx, std::size_t n,
                                   double* phase) const {
  if (reference_.empty() || n + reference_.size() > rx.size()) return 0.0;
  Sample acc{0.0, 0.0};
  double rx_energy = 0.0;
  for (std::size_t m = 0; m < reference_.size(); ++m) {
    const Sample& r = rx[n + m];
    acc += std::conj(reference_[m]) * r;
    rx_energy += std::norm(r);
  }
  const double denom = std::sqrt(reference_energy_ * rx_energy);
  if (denom <= 0.0) return 0.0;
  if (phase != nullptr) *phase = std::arg(acc);
  return std::abs(acc) / denom;
}

// Overlap-save FFT correlation used as an admission filter: an offset
// whose estimated score, widened by the rounding slack, could reach
// `threshold` is rescored with the exact ScoreAt, and only exact scores
// make hits. So the hits equal those of scanning ScoreAt over every
// offset, at O(log M) work per offset instead of O(M). A threshold <= 0
// admits every offset.
std::vector<SyncHit> WaveformCorrelator::FindPeaks(
    const SampleVec& rx, double threshold, std::size_t min_separation) const {
  std::vector<SyncHit> hits;
  const std::size_t m = reference_.size();
  if (rx.size() < m) return hits;
  const std::size_t last = rx.size() - m;

  // Block b correlates samples [b*step, b*step + size) and yields the
  // `step` offsets whose windows lie inside it. Blocks are about 2M long;
  // a capture shorter than that is one block. (An empty reference is
  // laid out as one sample long; it scores 0 everywhere.)
  const std::size_t window = std::max<std::size_t>(m, 1);
  const std::size_t size = std::bit_ceil(std::min(rx.size(), 2 * window));
  const std::size_t step = size - window + 1;

  // DFT(reference) / size, bit-reversed like each block's FftDif.
  std::vector<double> reference_spectrum(2 * size, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    reference_spectrum[2 * i] = reference_[i].real();
    reference_spectrum[2 * i + 1] = reference_[i].imag();
  }
  FftDif(reference_spectrum);
  const double scale = 1.0 / static_cast<double>(size);
  for (auto& x : reference_spectrum) x *= scale;

  std::vector<double> block(2 * size);
  for (std::size_t start = 0; start <= last; start += step) {
    // The DFT of conj(DFT(block)) * DFT(reference) / size is the
    // conjugate of the block's correlation with the reference.
    const std::size_t count = std::min(size, rx.size() - start);
    double block_energy = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Sample& x = rx[start + i];
      block[2 * i] = x.real();
      block[2 * i + 1] = x.imag();
      block_energy += std::norm(x);
    }
    std::fill(block.begin() + static_cast<std::ptrdiff_t>(2 * count),
              block.end(), 0.0);
    FftDif(block);
    for (std::size_t k = 0; k < 2 * size; k += 2) {
      const double xr = block[k], xi = block[k + 1];
      const double rr = reference_spectrum[k], ri = reference_spectrum[k + 1];
      block[k] = xr * rr + xi * ri;
      block[k + 1] = xr * ri - xi * rr;
    }
    FftDit(block);

    // Offset n is admitted unless, even widened by the slack, its
    // estimated |correlation|^2 falls short of threshold^2 * E_ref * E_win.
    const double corr_slack =
        kRelativeSlack * reference_energy_ * block_energy;
    const double energy_slack = kRelativeSlack * block_energy;
    const double needed_per_energy = threshold * threshold * reference_energy_;
    const std::size_t end = std::min(start + step, last + 1);
    double energy = 0.0;  // running energy of the window at offset n
    for (std::size_t i = 0; i < m; ++i) energy += std::norm(rx[start + i]);
    for (std::size_t n = start; n < end; ++n) {
      if (n > start) energy += std::norm(rx[n + m - 1]) - std::norm(rx[n - 1]);
      if (threshold > 0.0) {
        const double cr = block[2 * (n - start)];
        const double ci = block[2 * (n - start) + 1];
        if (cr * cr + ci * ci + corr_slack <=
            needed_per_energy * std::max(0.0, energy - energy_slack)) {
          continue;
        }
      }
      double phase = 0.0;
      const double score = ScoreAt(rx, n, &phase);
      if (score < threshold) continue;
      if (!hits.empty() && n - hits.back().sample_offset < min_separation) {
        // Within the separation window keep only the stronger hit.
        if (score > hits.back().score) {
          hits.back() = SyncHit{n, score, phase};
        }
        continue;
      }
      hits.push_back(SyncHit{n, score, phase});
    }
  }
  return hits;
}

}  // namespace ppr::phy
