#include "phy/frame_sync.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace ppr::phy {
namespace {

// Complex sequences below are split: real parts in one array, imaginary
// parts in another, so every butterfly loop runs at unit stride.

// Twiddles of the FFT of 2^log2_size points. The stage whose butterflies
// pair points h apart (h = 1, 2, 4, ..., size/2) reads exp(-i*pi*k/h)
// for k < h from entries h + k. Each table is built on first use and
// never changes.
struct Twiddles {
  std::vector<double> re, im;
};

const Twiddles& TwiddlesFor(int log2_size) {
  static std::array<std::once_flag, 64> built;
  static std::array<Twiddles, 64> tables;
  std::call_once(built[log2_size], [log2_size] {
    const std::size_t size = std::size_t{1} << log2_size;
    Twiddles& table = tables[log2_size];
    table.re.assign(size, 0.0);
    table.im.assign(size, 0.0);
    for (std::size_t h = 1; h < size; h *= 2) {
      for (std::size_t k = 0; k < h; ++k) {
        const double theta = -std::numbers::pi * static_cast<double>(k) /
                             static_cast<double>(h);
        table.re[h + k] = std::cos(theta);
        table.im[h + k] = std::sin(theta);
      }
    }
  });
  return tables[log2_size];
}

// The radix-2 butterflies of one stage on one group of 2h points: u is
// the group's first h points, v its last h, and w the stage's twiddles.
// The six ranges never overlap, and __restrict says so: without it gcc
// would need too many run-time alias checks and leaves the loops scalar.
void DifButterflies(double* __restrict ur, double* __restrict ui,
                    double* __restrict vr, double* __restrict vi,
                    const double* __restrict wr, const double* __restrict wi,
                    std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const double dr = ur[k] - vr[k];
    const double di = ui[k] - vi[k];
    ur[k] += vr[k];
    ui[k] += vi[k];
    vr[k] = wr[k] * dr - wi[k] * di;
    vi[k] = wr[k] * di + wi[k] * dr;
  }
}

void DitButterflies(double* __restrict ur, double* __restrict ui,
                    double* __restrict vr, double* __restrict vi,
                    const double* __restrict wr, const double* __restrict wi,
                    std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const double tr = wr[k] * vr[k] - wi[k] * vi[k];
    const double ti = wr[k] * vi[k] + wi[k] * vr[k];
    vr[k] = ur[k] - tr;
    vi[k] = ui[k] - ti;
    ur[k] += tr;
    ui[k] += ti;
  }
}

// Unscaled forward DFT in place of `size` points, a power of two.
// FftDif takes natural order and leaves bit-reversed order; FftDit takes
// bit-reversed order and leaves natural order. A product of two FftDif
// spectra is thus transformed by FftDit with no reordering. Both are
// radix 2, except that FftDif's last two stages and FftDit's first two
// run as one radix-4 pass, whose twiddles are 1 and -i.
void FftDif(double* re, double* im, std::size_t size) {
  if (size < 4) {
    if (size == 2) {
      const double dr = re[0] - re[1], di = im[0] - im[1];
      re[0] += re[1];
      im[0] += im[1];
      re[1] = dr;
      im[1] = di;
    }
    return;
  }
  const Twiddles& w = TwiddlesFor(std::countr_zero(size));
  for (std::size_t h = size / 2; h >= 4; h /= 2) {
    for (std::size_t start = 0; start < size; start += 2 * h) {
      DifButterflies(re + start, im + start, re + start + h, im + start + h,
                     &w.re[h], &w.im[h], h);
    }
  }
  for (std::size_t g = 0; g < size; g += 4) {
    double* r = re + g;
    double* i = im + g;
    // h = 2 (twiddles 1 and -i), then h = 1.
    const double s0r = r[0] + r[2], s0i = i[0] + i[2];
    const double s1r = r[1] + r[3], s1i = i[1] + i[3];
    const double d0r = r[0] - r[2], d0i = i[0] - i[2];
    const double d1r = i[1] - i[3], d1i = r[3] - r[1];
    r[0] = s0r + s1r;
    i[0] = s0i + s1i;
    r[1] = s0r - s1r;
    i[1] = s0i - s1i;
    r[2] = d0r + d1r;
    i[2] = d0i + d1i;
    r[3] = d0r - d1r;
    i[3] = d0i - d1i;
  }
}

void FftDit(double* re, double* im, std::size_t size) {
  if (size < 4) {
    FftDif(re, im, size);  // one butterfly or none: the orders agree
    return;
  }
  for (std::size_t g = 0; g < size; g += 4) {
    double* r = re + g;
    double* i = im + g;
    // h = 1, then h = 2 (twiddles 1 and -i).
    const double s0r = r[0] + r[1], s0i = i[0] + i[1];
    const double d0r = r[0] - r[1], d0i = i[0] - i[1];
    const double s1r = r[2] + r[3], s1i = i[2] + i[3];
    const double d1r = i[2] - i[3], d1i = r[3] - r[2];
    r[0] = s0r + s1r;
    i[0] = s0i + s1i;
    r[2] = s0r - s1r;
    i[2] = s0i - s1i;
    r[1] = d0r + d1r;
    i[1] = d0i + d1i;
    r[3] = d0r - d1r;
    i[3] = d0i - d1i;
  }
  const Twiddles& w = TwiddlesFor(std::countr_zero(size));
  for (std::size_t h = 4; h < size; h *= 2) {
    for (std::size_t start = 0; start < size; start += 2 * h) {
      DitButterflies(re + start, im + start, re + start + h, im + start + h,
                     &w.re[h], &w.im[h], h);
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

std::vector<SyncHit> WaveformCorrelator::FindPeaks(
    const SampleVec& rx, double threshold, std::size_t min_separation) const {
  const WaveformCorrelator* const self[] = {this};
  return std::move(FindPeaksTogether(self, rx, threshold, min_separation)[0]);
}

// Overlap-save FFT correlation used as an admission filter: an offset
// whose estimated score, widened by the rounding slack, could reach
// `threshold` is rescored with the exact ScoreAt, and only exact scores
// make hits. So the hits equal those of scanning ScoreAt over every
// offset, at O(log M) work per offset instead of O(M). A threshold <= 0
// admits every offset.
std::vector<std::vector<SyncHit>> FindPeaksTogether(
    std::span<const WaveformCorrelator* const> correlators,
    const SampleVec& rx, double threshold, std::size_t min_separation) {
  std::vector<std::vector<SyncHit>> hits(correlators.size());
  if (correlators.empty()) return hits;
  const std::size_t m = correlators[0]->reference_.size();
  for (const WaveformCorrelator* corr : correlators) {
    if (corr->reference_.size() != m) {
      throw std::invalid_argument(
          "FindPeaksTogether: reference lengths differ");
    }
  }
  if (rx.size() < m) return hits;
  const std::size_t last = rx.size() - m;

  // Block b correlates samples [b*step, b*step + size) and yields the
  // `step` offsets whose windows lie inside it. Blocks are about 2M long;
  // a capture shorter than that is one block. (An empty reference is
  // laid out as one sample long; it scores 0 everywhere.)
  const std::size_t window = std::max<std::size_t>(m, 1);
  const std::size_t size = std::bit_ceil(std::min(rx.size(), 2 * window));
  const std::size_t step = size - window + 1;

  // Per correlator, DFT(reference) / size, bit-reversed like each
  // block's FftDif: real parts, then imaginary parts.
  std::vector<std::vector<double>> spectra;
  const double scale = 1.0 / static_cast<double>(size);
  for (const WaveformCorrelator* corr : correlators) {
    std::vector<double>& spectrum = spectra.emplace_back(2 * size, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      spectrum[i] = corr->reference_[i].real();
      spectrum[size + i] = corr->reference_[i].imag();
    }
    FftDif(spectrum.data(), spectrum.data() + size, size);
    for (double& x : spectrum) x *= scale;
  }

  std::vector<double> block(2 * size), product(2 * size), energies(step);
  double* const br = block.data();
  double* const bi = br + size;
  double* const pr = product.data();
  double* const pi = pr + size;
  for (std::size_t start = 0; start <= last; start += step) {
    const std::size_t count = std::min(size, rx.size() - start);
    double block_energy = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Sample& x = rx[start + i];
      br[i] = x.real();
      bi[i] = x.imag();
      block_energy += std::norm(x);
    }
    std::fill(br + count, br + size, 0.0);
    std::fill(bi + count, bi + size, 0.0);
    FftDif(br, bi, size);

    // energies[n - start]: the running energy of the window at offset n.
    const std::size_t end = std::min(start + step, last + 1);
    double energy = 0.0;
    for (std::size_t i = 0; i < m; ++i) energy += std::norm(rx[start + i]);
    for (std::size_t n = start; n < end; ++n) {
      if (n > start) energy += std::norm(rx[n + m - 1]) - std::norm(rx[n - 1]);
      energies[n - start] = energy;
    }

    for (std::size_t c = 0; c < correlators.size(); ++c) {
      const WaveformCorrelator& corr = *correlators[c];
      // The DFT of conj(DFT(block)) * DFT(reference) / size is the
      // conjugate of the block's correlation with the reference.
      const double* sr = spectra[c].data();
      const double* si = sr + size;
      for (std::size_t k = 0; k < size; ++k) {
        pr[k] = br[k] * sr[k] + bi[k] * si[k];
        pi[k] = br[k] * si[k] - bi[k] * sr[k];
      }
      FftDit(pr, pi, size);

      // Offset n is admitted unless, even widened by the slack, its
      // estimated |correlation|^2 falls short of
      // threshold^2 * E_ref * E_win.
      const double corr_slack =
          kRelativeSlack * corr.reference_energy_ * block_energy;
      const double energy_slack = kRelativeSlack * block_energy;
      const double needed_per_energy =
          threshold * threshold * corr.reference_energy_;
      for (std::size_t n = start; n < end; ++n) {
        const std::size_t i = n - start;
        if (threshold > 0.0 &&
            pr[i] * pr[i] + pi[i] * pi[i] + corr_slack <=
                needed_per_energy * std::max(0.0, energies[i] - energy_slack)) {
          continue;
        }
        double phase = 0.0;
        const double score = corr.ScoreAt(rx, n, &phase);
        if (score < threshold) continue;
        std::vector<SyncHit>& found = hits[c];
        if (!found.empty() && n - found.back().sample_offset < min_separation) {
          // Within the separation window keep only the stronger hit.
          if (score > found.back().score) {
            found.back() = SyncHit{n, score, phase};
          }
          continue;
        }
        found.push_back(SyncHit{n, score, phase});
      }
    }
  }
  return hits;
}

}  // namespace ppr::phy
