#include "phy/spreader.h"

#include <cassert>
#include <stdexcept>

namespace ppr::phy {

std::vector<std::uint8_t> BitsToSymbols(const BitVec& bits) {
  if (bits.size() % kBitsPerSymbol != 0) {
    throw std::invalid_argument("BitsToSymbols: bit count not a multiple of 4");
  }
  std::vector<std::uint8_t> symbols;
  symbols.reserve(bits.size() / kBitsPerSymbol);
  // Octets are transmitted low nibble first; within the BitVec we store
  // octets MSB-first, so symbol k of an octet pair is built from the
  // appropriate nibble. We process nibble-by-nibble: bits [4i, 4i+4) form
  // one nibble MSB-first; for each octet (two nibbles) the low nibble
  // (second in the BitVec) is sent first.
  const std::size_t num_nibbles = bits.size() / kBitsPerSymbol;
  for (std::size_t n = 0; n < num_nibbles; n += 2) {
    const auto high =
        static_cast<std::uint8_t>(bits.ReadUint(n * kBitsPerSymbol, 4));
    if (n + 1 < num_nibbles) {
      const auto low =
          static_cast<std::uint8_t>(bits.ReadUint((n + 1) * kBitsPerSymbol, 4));
      symbols.push_back(low);   // low nibble of the octet first
      symbols.push_back(high);  // then the high nibble
    } else {
      symbols.push_back(high);  // lone trailing nibble
    }
  }
  return symbols;
}

BitVec SymbolsToBits(const std::vector<std::uint8_t>& symbols) {
  BitVec bits;
  const std::size_t n = symbols.size();
  for (std::size_t i = 0; i < n; i += 2) {
    if (i + 1 < n) {
      // Symbols arrive low nibble first; reassemble the octet MSB-first.
      bits.AppendUint(symbols[i + 1] & 0xF, 4);
      bits.AppendUint(symbols[i] & 0xF, 4);
    } else {
      bits.AppendUint(symbols[i] & 0xF, 4);
    }
  }
  return bits;
}

BitVec SpreadSymbols(const ChipCodebook& codebook,
                     const std::vector<std::uint8_t>& symbols) {
  BitVec chips;
  for (std::uint8_t s : symbols) {
    assert(s < kNumSymbols);
    chips.AppendLsbFirst(codebook.Codeword(s), kChipsPerSymbol);
  }
  return chips;
}

BitVec SpreadBits(const ChipCodebook& codebook, const BitVec& bits) {
  return SpreadSymbols(codebook, BitsToSymbols(bits));
}

}  // namespace ppr::phy
