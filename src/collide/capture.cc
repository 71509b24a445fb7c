#include "collide/capture.h"

#include <limits>
#include <stdexcept>

#include "arq/link_sim.h"
#include "phy/channel.h"

namespace ppr::collide {

namespace {

std::uint8_t NibbleAt(const BitVec& body, std::size_t codeword) {
  return static_cast<std::uint8_t>(body.ReadUint(codeword * 4, 4));
}

}  // namespace

CollisionCapture SimulateCollisionCapture(const phy::ChipCodebook& codebook,
                                          const BitVec& a_body,
                                          const BitVec& b_body,
                                          std::size_t offset,
                                          double chip_error_p, Rng& rng) {
  if (a_body.size() % 4 != 0 || b_body.size() % 4 != 0) {
    throw std::invalid_argument(
        "SimulateCollisionCapture: bodies must be codeword aligned");
  }
  CollisionCapture c;
  c.offset = offset;
  c.a_codewords = a_body.size() / 4;
  c.b_codewords = b_body.size() / 4;
  if (c.b_codewords == 0 || offset >= c.a_codewords) {
    throw std::invalid_argument(
        "SimulateCollisionCapture: overlap must be non-empty");
  }
  c.overlap_begin = offset;
  c.overlap_end = std::min(c.a_codewords, offset + c.b_codewords);
  const phy::ChipErrorRate rate(chip_error_p);

  c.a_symbols.reserve(c.a_codewords);
  c.overlap_chips.reserve(c.OverlapCodewords());
  for (std::size_t i = 0; i < c.a_codewords; ++i) {
    const std::uint8_t a_nib = NibbleAt(a_body, i);
    if (i >= c.overlap_begin && i < c.overlap_end) {
      const std::uint8_t b_nib = NibbleAt(b_body, c.BIndexAt(i));
      const phy::ChipWord word = codebook.Codeword(a_nib) ^
                                 codebook.Codeword(b_nib) ^
                                 phy::SampleChipErrorMask(rng, rate);
      c.overlap_chips.push_back(word);
      // What a collision-oblivious despreader would output for this
      // position: the nearest codeword to the superposition — usually
      // wrong, never trustworthy. The infinite hint marks it unusable;
      // the true superposed chips live in overlap_chips.
      phy::DecodedSymbol d;
      int distance = 0;
      d.symbol = static_cast<std::uint8_t>(codebook.DecodeHard(word, &distance));
      d.hamming_distance = distance;
      d.hint = std::numeric_limits<double>::infinity();
      c.a_symbols.push_back(d);
    } else {
      c.a_symbols.push_back(
          arq::ChipTransmitNibble(codebook, a_nib, rate, rng));
    }
  }
  for (std::size_t j = c.TailBegin(); j < c.b_codewords; ++j) {
    c.b_tail.push_back(
        arq::ChipTransmitNibble(codebook, NibbleAt(b_body, j), rate, rng));
  }
  return c;
}

std::vector<phy::DecodedSymbol> InitialSymbolsFromCapture(
    const CollisionCapture& capture) {
  std::vector<phy::DecodedSymbol> symbols = capture.a_symbols;
  for (std::size_t i = capture.overlap_begin; i < capture.overlap_end; ++i) {
    symbols[i].hint = std::numeric_limits<double>::infinity();
    symbols[i].hamming_distance = static_cast<int>(phy::kChipsPerSymbol);
  }
  return symbols;
}

std::uint8_t DecodeXorNibble(const phy::ChipCodebook& codebook,
                             phy::ChipWord word, int* distance) {
  // The first (x, y) pair at the smallest distance, x then y ascending:
  // DecodeHard gives the first y at x's own minimum, and only a
  // strictly closer x replaces it. A pair (x, y) with x > y is never
  // first, since (y, x) is as close and comes earlier.
  int best = std::numeric_limits<int>::max();
  std::uint8_t best_xor = 0;
  for (int x = 0; x < phy::kNumSymbols; ++x) {
    int d = 0;
    const int y = codebook.DecodeHard(word ^ codebook.Codeword(x), &d);
    if (d < best) {
      best = d;
      best_xor = static_cast<std::uint8_t>(x ^ y);
    }
  }
  if (distance != nullptr) *distance = best;
  return best_xor;
}

CollisionEpisode DrawCollisionEpisode(const phy::ChipCodebook& codebook,
                                      const BitVec& a_body,
                                      const CollisionEpisodeParams& params,
                                      Rng& rng) {
  const std::size_t a_cw = a_body.size() / 4;
  if (a_cw < 3) {
    throw std::invalid_argument(
        "DrawCollisionEpisode: body must span at least 3 codewords");
  }
  CollisionEpisode e;
  const std::size_t b_octets = params.b_octets == 0 ? 1 : params.b_octets;
  for (std::size_t o = 0; o < b_octets; ++o) {
    e.b_body.AppendUint(rng.UniformInt(256), 8);
  }
  // Distinct offsets in [1, K]: draw the first uniformly, the second
  // from the K-1 remaining values.
  std::size_t max_offset = params.max_offset == 0
                               ? std::max<std::size_t>(2, a_cw / 4)
                               : params.max_offset;
  const std::size_t k = std::min(max_offset, a_cw - 1);
  const std::size_t d1 = 1 + rng.UniformInt(k);
  std::size_t d2 = 1 + rng.UniformInt(k > 1 ? k - 1 : 1);
  if (d2 >= d1) ++d2;
  e.first = SimulateCollisionCapture(codebook, a_body, e.b_body, d1,
                                     params.chip_error_p, rng);
  e.second = SimulateCollisionCapture(codebook, a_body, e.b_body, d2,
                                      params.chip_error_p, rng);
  return e;
}

}  // namespace ppr::collide
