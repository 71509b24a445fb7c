#include "fec/reed_solomon.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "fec/fft.h"

namespace ppr::fec {
namespace {

constexpr std::uint32_t kLogMod = 65535;  // order of the multiplicative group

// In-place Walsh-Hadamard transform over Z_65535. Self-inverse up to a
// factor of n = 65536 === 1 (mod 65535), so no normalization pass.
void Fwht(std::uint32_t* a, std::size_t n) {
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t i = 0; i < n; i += h << 1) {
      for (std::size_t j = i; j < i + h; ++j) {
        const std::uint32_t x = a[j];
        const std::uint32_t y = a[j + h];
        a[j] = (x + y) % kLogMod;
        a[j + h] = (x + kLogMod - y) % kLogMod;
      }
    }
  }
}

// FWHT of the discrete-log table over the full domain (log 0 := 0),
// computed once: the erasure-locator convolution reuses it per decode.
const std::vector<std::uint32_t>& FwhtLogTable() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kGf16Order);
    t[0] = 0;
    for (unsigned v = 1; v < kGf16Order; ++v) {
      t[v] = Gf16Log(static_cast<Gf16>(v));
    }
    Fwht(t.data(), kGf16Order);
    return t;
  }();
  return table;
}

std::size_t Pow2Ceil(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::size_t ValidateSymbolBytes(std::size_t symbol_bytes) {
  if (symbol_bytes == 0 || symbol_bytes % 2 != 0) {
    throw std::invalid_argument(
        "ReedSolomon: symbol_bytes must be even (16-bit field elements)");
  }
  return symbol_bytes / 2;
}

}  // namespace

std::size_t RsBlockSize(std::size_t k, std::size_t m) {
  if (k == 0 || m == 0) {
    throw std::invalid_argument("ReedSolomon: k and m must be positive");
  }
  if (k > 32768 || m > 32768) {
    throw std::invalid_argument(
        "ReedSolomon: k and m are limited to 32768 (2K <= |GF(2^16)|)");
  }
  return Pow2Ceil(k > m ? k : m);
}

ReedSolomonEncoder::ReedSolomonEncoder(std::size_t k, std::size_t m,
                                       std::size_t symbol_bytes)
    : k_(k),
      m_(m),
      symbol_bytes_(symbol_bytes),
      words_(ValidateSymbolBytes(symbol_bytes)),
      cap_(RsBlockSize(k, m)),
      work_(cap_ * words_, 0),
      coset_(cap_ * words_, 0) {}

void ReedSolomonEncoder::SetSource(std::size_t i,
                                   std::span<const std::uint8_t> data) {
  if (i >= k_ || data.size() != symbol_bytes_) {
    throw std::invalid_argument("ReedSolomonEncoder: bad source symbol");
  }
  if (finished_) {
    throw std::logic_error("ReedSolomonEncoder: SetSource after Finish");
  }
  std::memcpy(work_.data() + i * words_, data.data(), symbol_bytes_);
}

void ReedSolomonEncoder::Finish() {
  if (finished_) return;
  const AdditiveFft& fft = AdditiveFft::Instance();
  // work_ rows [0, k) hold the data, [k, K) the virtual zeros: IFFT
  // turns evaluations on [0, K) into P's novel-basis coefficients,
  // and the coset FFT evaluates P on [K, 2K) — the parity points.
  fft.Ifft(work_.data(), words_, cap_, 0);
  std::memcpy(coset_.data(), work_.data(), cap_ * words_ * sizeof(Gf16));
  fft.Fft(coset_.data(), words_, cap_, cap_);
  finished_ = true;
}

std::span<const std::uint8_t> ReedSolomonEncoder::Parity(std::size_t j) const {
  assert(finished_ && j < m_);
  return {reinterpret_cast<const std::uint8_t*>(coset_.data() + j * words_),
          symbol_bytes_};
}

void ReedSolomonEncoder::Reset() {
  std::memset(work_.data(), 0, work_.size() * sizeof(Gf16));
  finished_ = false;
}

ReedSolomonDecoder::ReedSolomonDecoder(std::size_t k, std::size_t m,
                                       std::size_t symbol_bytes)
    : k_(k),
      m_(m),
      symbol_bytes_(symbol_bytes),
      words_(ValidateSymbolBytes(symbol_bytes)),
      cap_(RsBlockSize(k, m)),
      syms_((k + m) * words_, 0),
      have_(k + m, false) {}

bool ReedSolomonDecoder::AddSourceSpan(std::size_t i,
                                       std::span<const std::uint8_t> data) {
  if (i >= k_ || data.size() != symbol_bytes_) {
    throw std::invalid_argument("ReedSolomonDecoder: bad source symbol");
  }
  if (have_[i]) return false;
  std::memcpy(syms_.data() + i * words_, data.data(), symbol_bytes_);
  have_[i] = true;
  ++known_data_;
  return true;
}

bool ReedSolomonDecoder::AddParitySpan(std::size_t j,
                                       std::span<const std::uint8_t> data) {
  if (j >= m_ || data.size() != symbol_bytes_) {
    throw std::invalid_argument("ReedSolomonDecoder: bad parity symbol");
  }
  if (have_[k_ + j]) return false;
  std::memcpy(syms_.data() + (k_ + j) * words_, data.data(), symbol_bytes_);
  have_[k_ + j] = true;
  ++known_parity_;
  return true;
}

void ReedSolomonDecoder::Decode() {
  if (!CanDecode()) {
    throw std::logic_error("ReedSolomonDecoder: Decode before CanDecode");
  }
  if (Complete()) return;
  const std::size_t n2 = 2 * cap_;
  work_.assign(n2 * words_, 0);
  scratch_.resize(n2 * words_);
  loc_.assign(n2, 0);

  // Erased positions of the length-2K codeword: missing data, missing
  // parity, and the never-materialized evaluation tail [K + m, 2K).
  // Points [k, K) are KNOWN virtual zeros, not erasures.
  std::vector<std::uint32_t> erased;
  erased.reserve(n2);
  for (std::size_t u = 0; u < k_; ++u) {
    if (!have_[u]) erased.push_back(static_cast<std::uint32_t>(u));
  }
  for (std::size_t j = 0; j < m_; ++j) {
    if (!have_[k_ + j]) erased.push_back(static_cast<std::uint32_t>(cap_ + j));
  }
  for (std::size_t u = cap_ + m_; u < n2; ++u) {
    erased.push_back(static_cast<std::uint32_t>(u));
  }

  // loc_[u] = log e(point(u)) = sum over erased v of log(u ^ v), with
  // log 0 := 0 dropping the v == u term — so exp(loc_[u]) is e(u) at
  // surviving points and e'(u) = prod_{v != u} (u ^ v) at erased ones.
  if (n2 * erased.size() <= (std::size_t{1} << 21)) {
    for (std::size_t u = 0; u < n2; ++u) {
      std::uint64_t sum = 0;
      for (const std::uint32_t v : erased) {
        const std::uint32_t w = static_cast<std::uint32_t>(u) ^ v;
        if (w != 0) sum += Gf16Log(static_cast<Gf16>(w));
      }
      loc_[u] = static_cast<std::uint32_t>(sum % kLogMod);
    }
  } else {
    // XOR-convolution of the erasure indicator with the log table via
    // three full-domain FWHTs (one amortized into FwhtLogTable).
    std::vector<std::uint32_t> ind(kGf16Order, 0);
    for (const std::uint32_t v : erased) ind[v] = 1;
    Fwht(ind.data(), kGf16Order);
    const auto& flog = FwhtLogTable();
    for (std::size_t i = 0; i < kGf16Order; ++i) {
      ind[i] = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(ind[i]) * flog[i]) % kLogMod);
    }
    Fwht(ind.data(), kGf16Order);
    for (std::size_t u = 0; u < n2; ++u) loc_[u] = ind[u];
  }

  // d_u = c_u * e(u) at known points, 0 at erasures (and at the
  // virtual zeros, where c_u = 0): the evaluations of N = P * e.
  for (std::size_t u = 0; u < k_ + m_; ++u) {
    if (!have_[u]) continue;
    const std::size_t point = u < k_ ? u : cap_ + (u - k_);
    Gf16* row = work_.data() + point * words_;
    std::memcpy(row, syms_.data() + u * words_, words_ * sizeof(Gf16));
    Gf16Scale({row, words_}, Gf16Exp(loc_[point]));
  }

  // N has degree < 2K: IFFT recovers it exactly; N' = P e' at erased
  // points (P' e vanishes there); FFT brings N' back to the domain.
  const AdditiveFft& fft = AdditiveFft::Instance();
  fft.Ifft(work_.data(), words_, n2, 0);
  fft.Derivative(work_.data(), words_, n2, scratch_.data());
  fft.Fft(work_.data(), words_, n2, 0);

  for (std::size_t u = 0; u < k_; ++u) {
    if (have_[u]) continue;
    Gf16* row = work_.data() + u * words_;
    Gf16Scale({row, words_}, Gf16Inv(Gf16Exp(loc_[u])));
    std::memcpy(syms_.data() + u * words_, row, words_ * sizeof(Gf16));
    have_[u] = true;
    ++known_data_;
  }
}

std::span<const std::uint8_t> ReedSolomonDecoder::Symbol(std::size_t i) const {
  assert(i < k_ && have_[i]);
  return {reinterpret_cast<const std::uint8_t*>(syms_.data() + i * words_),
          symbol_bytes_};
}

void ReedSolomonDecoder::Reset() {
  std::fill(have_.begin(), have_.end(), false);
  known_data_ = 0;
  known_parity_ = 0;
}

}  // namespace ppr::fec
