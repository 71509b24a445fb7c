#include "phy/chip_sequences.h"

#include <bit>
#include <cassert>
#include <limits>

#include "common/popcount.h"

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

// DecodeHard's byte-sliced distance table: kSlices[b][v][s] is the
// Hamming distance between byte b of symbol s's codeword and the byte
// value v. The four rows a word's bytes select add up to its distance
// from all sixteen codewords, at most 32, so one byte per symbol.
using SliceRow = std::array<std::uint8_t, kNumSymbols>;

constexpr std::array<std::array<SliceRow, 256>, 4> BuildSlices() {
  std::array<std::array<SliceRow, 256>, 4> slices{};
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t v = 0; v < 256; ++v) {
      for (std::size_t s = 0; s < kNumSymbols; ++s) {
        slices[b][v][s] = static_cast<std::uint8_t>(
            PopCount(((kTable[s] >> (8 * b)) & 0xFFu) ^ v));
      }
    }
  }
  return slices;
}

alignas(16) constexpr std::array<std::array<SliceRow, 256>, 4> kSlices =
    BuildSlices();

// Sixteen bytes as one GCC/Clang vector, and the same bits as two 64-bit
// lanes. Only operators both compilers document are used on them; on
// x86-64 they compile to baseline SSE2 (paddb, pminub, pcmpeqb).
using ByteVec = std::uint8_t __attribute__((vector_size(16)));
using LaneVec = std::uint64_t __attribute__((vector_size(16)));

// The lane shifts and the bit gather take byte i of a lane to be its
// bits 8i..8i+7.
static_assert(std::endian::native == std::endian::little);

ByteVec SliceRowFor(std::size_t b, ChipWord word) {
  return std::bit_cast<ByteVec>(kSlices[b][(word >> (8 * b)) & 0xFFu]);
}

ByteVec Min(ByteVec a, ByteVec b) { return a < b ? a : b; }

// Per 64-bit lane, bit i of byte i of a match mask (0x00 or 0xFF
// bytes); the multiply adds the eight bits into the top byte.
unsigned GatherByteBits(std::uint64_t lane) {
  return static_cast<unsigned>(
      ((lane & 0x8040201008040201ull) * 0x0101010101010101ull) >> 56);
}

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
  const ByteVec d = SliceRowFor(0, received) + SliceRowFor(1, received) +
                    SliceRowFor(2, received) + SliceRowFor(3, received);
  // Fold the minimum into byte 0: across the two lanes, then within each
  // lane over 32-, 16- and 8-bit shifts.
  const LaneVec lanes = std::bit_cast<LaneVec>(d);
  ByteVec m = Min(d, std::bit_cast<ByteVec>(LaneVec{lanes[1], lanes[0]}));
  m = Min(m, std::bit_cast<ByteVec>(std::bit_cast<LaneVec>(m) >> 32));
  m = Min(m, std::bit_cast<ByteVec>(std::bit_cast<LaneVec>(m) >> 16));
  m = Min(m, std::bit_cast<ByteVec>(std::bit_cast<LaneVec>(m) >> 8));
  const std::uint8_t best = m[0];
  // Bit s set for every symbol s at the minimum; the lowest is the
  // smallest-symbol tie rule.
  const std::uint64_t spread = best * 0x0101010101010101ull;
  const LaneVec hits = std::bit_cast<LaneVec>(
      d == std::bit_cast<ByteVec>(LaneVec{spread, spread}));
  const unsigned at_best =
      GatherByteBits(hits[0]) | GatherByteBits(hits[1]) << 8;
  if (distance != nullptr) *distance = best;
  return std::countr_zero(at_best);
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
      min_d = std::min(min_d, PopCount(kTable[static_cast<std::size_t>(a)] ^
                                       kTable[static_cast<std::size_t>(b)]));
    }
  }
  return min_d;
}

}  // namespace ppr::phy
