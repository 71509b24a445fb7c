#include "phy/despreader.h"

#include "phy/spreader.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ppr::phy {

std::vector<DecodedSymbol> DespreadHard(const ChipCodebook& codebook,
                                        const BitVec& chips) {
  if (chips.size() % kChipsPerSymbol != 0) {
    throw std::invalid_argument("DespreadHard: chip count not a multiple of 32");
  }
  std::vector<DecodedSymbol> out;
  out.reserve(chips.size() / kChipsPerSymbol);
  for (std::size_t pos = 0; pos < chips.size(); pos += kChipsPerSymbol) {
    const auto received =
        static_cast<ChipWord>(chips.ReadLsbFirst(pos, kChipsPerSymbol));
    DecodedSymbol d;
    int distance = 0;
    d.symbol = static_cast<std::uint8_t>(codebook.DecodeHard(received, &distance));
    d.hamming_distance = distance;
    d.hint = static_cast<double>(distance);
    out.push_back(d);
  }
  return out;
}

std::vector<DecodedSymbol> DespreadSoft(const ChipCodebook& codebook,
                                        const std::vector<double>& soft_chips,
                                        HintKind kind) {
  if (soft_chips.size() % kChipsPerSymbol != 0) {
    throw std::invalid_argument("DespreadSoft: chip count not a multiple of 32");
  }
  std::vector<DecodedSymbol> out;
  out.reserve(soft_chips.size() / kChipsPerSymbol);
  for (std::size_t pos = 0; pos < soft_chips.size(); pos += kChipsPerSymbol) {
    std::array<double, kChipsPerSymbol> window{};
    ChipWord hard = 0;
    double energy = 0.0;
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const double v = soft_chips[pos + static_cast<std::size_t>(i)];
      window[static_cast<std::size_t>(i)] = v;
      if (v >= 0.0) hard |= ChipWord{1} << i;
      energy += std::abs(v);
    }

    DecodedSymbol d;
    int hard_distance = 0;
    const int hard_symbol = codebook.DecodeHard(hard, &hard_distance);
    d.hamming_distance = hard_distance;

    switch (kind) {
      case HintKind::kHammingDistance: {
        d.symbol = static_cast<std::uint8_t>(hard_symbol);
        d.hint = static_cast<double>(hard_distance);
        break;
      }
      case HintKind::kSoftCorrelation: {
        double correlation = 0.0;
        double margin = 0.0;
        const int soft_symbol = codebook.DecodeSoft(window, &correlation, &margin);
        d.symbol = static_cast<std::uint8_t>(soft_symbol);
        // Normalize by total |energy| so the hint is scale invariant;
        // negate so lower = more confident (monotonicity contract).
        const double denom = energy > 0.0 ? energy : 1.0;
        d.hint = -(margin / denom);
        break;
      }
      case HintKind::kMatchedFilterEnergy: {
        d.symbol = static_cast<std::uint8_t>(hard_symbol);
        d.hint = -(energy / kChipsPerSymbol);
        break;
      }
    }
    out.push_back(d);
  }
  return out;
}

std::vector<DecodedSymbol> ToLogicalNibbleOrder(
    std::vector<DecodedSymbol> symbols) {
  if (symbols.size() % 2 != 0) {
    throw std::invalid_argument("ToLogicalNibbleOrder: odd symbol count");
  }
  for (std::size_t i = 0; i + 1 < symbols.size(); i += 2) {
    std::swap(symbols[i], symbols[i + 1]);
  }
  return symbols;
}

BitVec DecodedSymbolsToBits(const std::vector<DecodedSymbol>& symbols) {
  std::vector<std::uint8_t> values;
  values.reserve(symbols.size());
  for (const auto& d : symbols) values.push_back(d.symbol);
  return SymbolsToBits(values);
}

}  // namespace ppr::phy
