#include "phy/chip_sequences.h"

#include <bit>
#include <cassert>
#include <limits>

namespace ppr::phy {
namespace {

// Base chip sequence for symbol 0, chips c0..c31, from the 802.15.4
// standard's symbol-to-chip table.
constexpr char kBaseSequence[] = "11011001110000110101001000101110";

constexpr ChipWord PackFromString(const char* s) {
  ChipWord w = 0;
  for (int i = 0; i < kChipsPerSymbol; ++i) {
    if (s[i] == '1') w |= (ChipWord{1} << i);
  }
  return w;
}

// Right-rotate the 32-chip sequence by `n` chip positions: chip i of the
// result is chip (i - n) mod 32 of the input.
constexpr ChipWord RotateRight(ChipWord w, int n) {
  n &= 31;
  if (n == 0) return w;
  return std::rotl(w, n);  // chip i lives in bit i, so rotl moves chips right
}

constexpr ChipWord kOddChipMask = 0xAAAAAAAAu;

constexpr std::array<ChipWord, kNumSymbols> BuildTable() {
  std::array<ChipWord, kNumSymbols> table{};
  const ChipWord base = PackFromString(kBaseSequence);
  for (int s = 0; s < 8; ++s) {
    table[static_cast<std::size_t>(s)] = RotateRight(base, 4 * s);
  }
  for (int s = 0; s < 8; ++s) {
    table[static_cast<std::size_t>(s + 8)] =
        table[static_cast<std::size_t>(s)] ^ kOddChipMask;
  }
  return table;
}

constexpr std::array<ChipWord, kNumSymbols> kTable = BuildTable();

}  // namespace

ChipWord ChipCodebook::Codeword(int symbol) const {
  assert(symbol >= 0 && symbol < kNumSymbols);
  return kTable[static_cast<std::size_t>(symbol)];
}

bool ChipCodebook::Chip(int symbol, int i) const {
  assert(i >= 0 && i < kChipsPerSymbol);
  return (Codeword(symbol) >> i) & 1u;
}

BitVec ChipCodebook::CodewordBits(int symbol) const {
  BitVec v;
  v.AppendLsbFirst(Codeword(symbol), kChipsPerSymbol);
  return v;
}

int ChipCodebook::DecodeHard(ChipWord received, int* distance) const {
  int best_symbol = 0;
  int best_distance = std::numeric_limits<int>::max();
  for (int s = 0; s < kNumSymbols; ++s) {
    const int d = ChipHamming(received, kTable[static_cast<std::size_t>(s)]);
    if (d < best_distance) {
      best_distance = d;
      best_symbol = s;
    }
  }
  if (distance != nullptr) *distance = best_distance;
  return best_symbol;
}

int ChipCodebook::DecodeSoft(const std::array<double, kChipsPerSymbol>& soft,
                             double* correlation, double* margin) const {
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  int best_symbol = 0;
  for (int s = 0; s < kNumSymbols; ++s) {
    const ChipWord cw = kTable[static_cast<std::size_t>(s)];
    double corr = 0.0;
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const double level = ((cw >> i) & 1u) ? 1.0 : -1.0;
      corr += level * soft[static_cast<std::size_t>(i)];
    }
    if (corr > best) {
      second = best;
      best = corr;
      best_symbol = s;
    } else if (corr > second) {
      second = corr;
    }
  }
  if (correlation != nullptr) *correlation = best;
  if (margin != nullptr) *margin = best - second;
  return best_symbol;
}

int ChipCodebook::MinPairwiseDistance() const {
  int min_d = kChipsPerSymbol;
  for (int a = 0; a < kNumSymbols; ++a) {
    for (int b = a + 1; b < kNumSymbols; ++b) {
      min_d = std::min(min_d, ChipHamming(kTable[static_cast<std::size_t>(a)],
                                          kTable[static_cast<std::size_t>(b)]));
    }
  }
  return min_d;
}

}  // namespace ppr::phy
