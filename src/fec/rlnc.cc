#include "fec/rlnc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "fec/gauss_jordan.h"
#include "fec/gf256.h"

namespace ppr::fec {

void RepairCoefficientsInto(std::uint32_t seed,
                            std::span<std::uint8_t> coefs) {
  // Mix the seed so consecutive seeds (the sender uses a counter) give
  // unrelated streams even through the first few draws.
  Rng rng(0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(seed) << 17 |
                                   static_cast<std::uint64_t>(seed)));
  for (auto& c : coefs) c = static_cast<std::uint8_t>(rng.UniformInt(256));
}

std::vector<std::uint8_t> RepairCoefficients(std::uint32_t seed,
                                             std::size_t n_source) {
  std::vector<std::uint8_t> coefs(n_source);
  RepairCoefficientsInto(seed, coefs);
  return coefs;
}

std::uint32_t PartySeed(std::uint8_t party, std::uint32_t counter) {
  return (static_cast<std::uint32_t>(party) << 24) | (counter & 0xFFFFFFu);
}

std::uint8_t SeedParty(std::uint32_t seed) {
  return static_cast<std::uint8_t>(seed >> 24);
}

std::uint32_t SeedCounter(std::uint32_t seed) { return seed & 0xFFFFFFu; }

std::vector<std::uint8_t> MaskedCoefficients(std::uint32_t seed,
                                             const std::vector<bool>& have) {
  auto coefs = RepairCoefficients(seed, have.size());
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (!have[i]) coefs[i] = 0;
  }
  return coefs;
}

RepairSymbol MakeMaskedRepair(
    const std::vector<std::vector<std::uint8_t>>& symbols,
    const std::vector<bool>& have, std::uint32_t seed) {
  if (symbols.size() != have.size() || symbols.empty()) {
    throw std::invalid_argument("MakeMaskedRepair: mask shape mismatch");
  }
  std::size_t width = 0;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (have[i]) width = symbols[i].size();
  }
  if (width == 0) {
    throw std::invalid_argument("MakeMaskedRepair: empty mask");
  }
  RepairSymbol out;
  out.seed = seed;
  out.data.assign(width, 0);
  const auto coefs = MaskedCoefficients(seed, have);
  std::vector<GfTerm> terms;
  terms.reserve(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (coefs[i] == 0) continue;
    if (symbols[i].size() != width) {
      throw std::invalid_argument("MakeMaskedRepair: ragged symbols");
    }
    terms.push_back({coefs[i], symbols[i]});
  }
  GfAxpyN(out.data, terms);
  return out;
}

RlncEncoder::RlncEncoder(std::vector<std::vector<std::uint8_t>> source)
    : source_(std::move(source)) {
  if (source_.empty() || source_.front().empty()) {
    throw std::invalid_argument("RlncEncoder: empty source block");
  }
  for (const auto& s : source_) {
    if (s.size() != source_.front().size()) {
      throw std::invalid_argument("RlncEncoder: ragged source symbols");
    }
  }
}

RepairSymbol RlncEncoder::MakeRepair(std::uint32_t seed) const {
  RepairSymbol out;
  out.seed = seed;
  out.data.assign(symbol_bytes(), 0);
  const auto coefs = RepairCoefficients(seed, num_source());
  std::vector<GfTerm> terms;
  terms.reserve(num_source());
  for (std::size_t i = 0; i < num_source(); ++i) {
    if (coefs[i] != 0) terms.push_back({coefs[i], source_[i]});
  }
  GfAxpyN(out.data, terms);
  return out;
}

RlncDecoder::RlncDecoder(std::size_t n_source, std::size_t symbol_bytes)
    : n_source_(n_source),
      symbol_bytes_(symbol_bytes),
      rows_(n_source),
      live_(n_source, 0) {
  if (n_source == 0 || symbol_bytes == 0) {
    throw std::invalid_argument("RlncDecoder: empty source block");
  }
}

bool RlncDecoder::AddSource(std::size_t index,
                            std::span<const std::uint8_t> data) {
  if (index >= n_source_) {
    throw std::invalid_argument("RlncDecoder: source index out of range");
  }
  if (data.size() != symbol_bytes_) {
    throw std::invalid_argument("RlncDecoder: equation shape mismatch");
  }
  work_.assign(row_bytes(), 0);
  work_[index] = 1;
  std::copy(data.begin(), data.end(), work_.begin() + n_source_);
  return InsertWork();
}

bool RlncDecoder::AddRepair(const RepairSymbol& repair) {
  if (Complete()) return false;
  if (repair.data.size() != symbol_bytes_) {
    throw std::invalid_argument("RlncDecoder: equation shape mismatch");
  }
  work_.resize(row_bytes());
  RepairCoefficientsInto(repair.seed, std::span(work_).first(n_source_));
  std::copy(repair.data.begin(), repair.data.end(),
            work_.begin() + n_source_);
  return InsertWork();
}

bool RlncDecoder::AddEquation(std::span<const std::uint8_t> coefs,
                              std::span<const std::uint8_t> data) {
  if (coefs.size() != n_source_ || data.size() != symbol_bytes_) {
    throw std::invalid_argument("RlncDecoder: equation shape mismatch");
  }
  work_.resize(row_bytes());
  std::copy(coefs.begin(), coefs.end(), work_.begin());
  std::copy(data.begin(), data.end(), work_.begin() + n_source_);
  return InsertWork();
}

bool RlncDecoder::InsertWork() {
  const std::size_t lead = GaussJordanInsert(
      work_, n_source_,
      [this](std::size_t j) { return live_[j] ? rows_[j].data() : nullptr; },
      terms_);
  if (lead == n_source_) return false;  // linearly dependent
  // The work row becomes the pivot row; the lead column's dead buffer
  // (empty on first use) becomes the next call's work scratch.
  rows_[lead].swap(work_);
  live_[lead] = 1;
  ++rank_;
  return true;
}

void RlncDecoder::Reset() {
  live_.assign(n_source_, 0);
  rank_ = 0;
}

std::span<const std::uint8_t> RlncDecoder::Symbol(std::size_t i) const {
  assert(Complete());
  assert(i < n_source_ && live_[i]);
  return std::span<const std::uint8_t>(rows_[i]).subspan(n_source_,
                                                         symbol_bytes_);
}

}  // namespace ppr::fec
