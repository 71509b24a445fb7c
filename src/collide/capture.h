// Two-party collision captures: the chip-level record of one packet's
// reception while a second transmission overlapped it on the shared
// medium.
//
// The medium layers (ppr/medium.h, arq/chip_medium.h) draw interferer
// content, phase, and overlap spans explicitly, so a collision is
// simulable rather than abstract: within the overlap the received chip
// word is the XOR superposition of both parties' DSSS codewords (the
// binary-adder collision channel of "Collision Helps", ParandehGheibi
// et al.), plus the usual per-chip noise flips. Outside the overlap
// each party's codewords despread cleanly. A CollisionCapture keeps
// both views: clean-region DecodedSymbols (with genuine SoftPHY hints)
// and the raw superposed chip words of the overlap — the input the
// ZigZag stripper (collide/zigzag.h) and the algebraic ledger
// (collide/ledger.h) consume.
//
// Geometry (codeword granular): packet A occupies codewords
// [0, a_codewords); interferer B starts `offset` codewords into A and
// occupies [offset, offset + b_codewords). The overlap is
// [offset, min(a_codewords, offset + b_codewords)); B codewords past
// A's end despread cleanly as B's tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"
#include "phy/despreader.h"

namespace ppr::collide {

struct CollisionCapture {
  std::size_t offset = 0;        // A codewords transmitted before B starts
  std::size_t a_codewords = 0;
  std::size_t b_codewords = 0;
  // One entry per A codeword: clean positions carry the despread
  // DecodedSymbol; positions inside the overlap carry an infinite hint
  // (the superposition is not decodable as A alone).
  std::vector<phy::DecodedSymbol> a_symbols;
  // Raw superposed chip words for A codewords [overlap_begin,
  // overlap_end): chips(A_i) ^ chips(B_{i - offset}) ^ noise.
  std::size_t overlap_begin = 0;
  std::size_t overlap_end = 0;
  std::vector<phy::ChipWord> overlap_chips;
  // Clean despreads of B's codewords past A's end: entry t is B
  // codeword (a_codewords - offset + t). Empty when B ends inside A.
  std::vector<phy::DecodedSymbol> b_tail;

  std::size_t OverlapCodewords() const { return overlap_end - overlap_begin; }
  // B codeword index superposed at A codeword `a_index` (requires
  // overlap_begin <= a_index < overlap_end).
  std::size_t BIndexAt(std::size_t a_index) const { return a_index - offset; }
  // First B codeword index covered by b_tail.
  std::size_t TailBegin() const { return a_codewords - offset; }
};

// Simulates one capture of A's body colliding with B's body at the
// given codeword offset (0 <= offset < a_codewords, b non-empty).
// Per-codeword noise flips each chip with probability `chip_error_p`;
// draws are taken from `rng` in a fixed order (A codewords first, then
// B's tail), so a capture is a pure function of (bodies, offset, rng
// state). Bodies are 4-bit-codeword aligned (bits % 4 == 0).
CollisionCapture SimulateCollisionCapture(const phy::ChipCodebook& codebook,
                                          const BitVec& a_body,
                                          const BitVec& b_body,
                                          std::size_t offset,
                                          double chip_error_p, Rng& rng);

// The ARQ receiver's view of A from one collided capture: the clean
// decodes verbatim, overlap positions forced bad (infinite hint), so
// IngestInitial treats the superposed span exactly like an impairment
// burst it must repair.
std::vector<phy::DecodedSymbol> InitialSymbolsFromCapture(
    const CollisionCapture& capture);

// Decodes the XOR value x ^ y from a superposed chip word
// w ~ chips(x) ^ chips(y) (+ noise) by searching all 256 codeword
// pairs, as one DecodeHard of w ^ chips(x) per x: the returned value is
// the nibble XOR of the closest pair (the first in x-then-y order on a
// tie) and `*distance` its chip Hamming distance — a genuine
// SoftPHY-style confidence for the superposition itself. The DSSS
// codebook is not GF(2)-linear, so this pairwise search is how a
// chip-level XOR of two unknown codewords becomes a DATA-level XOR
// constraint (the raw material of the ledger's cross-cancelled GF(256)
// equations).
std::uint8_t DecodeXorNibble(const phy::ChipCodebook& codebook,
                             phy::ChipWord word, int* distance);

// One ZigZag episode: the same packet pair collides twice at different
// offsets (classically: both parties' MAC retransmissions collide
// again). `b_body` is kept as ground truth for tests and the bench;
// the resolution path never reads it.
struct CollisionEpisode {
  CollisionCapture first;
  CollisionCapture second;
  BitVec b_body;
};

struct CollisionEpisodeParams {
  std::size_t b_octets = 32;     // interferer body length
  double chip_error_p = 0.0;     // per-chip noise during both captures
  // Offsets are drawn uniformly from [1, max_offset] (clamped below
  // a_codewords), distinct between the two captures. 0 = auto: a
  // quarter of A's codewords.
  std::size_t max_offset = 0;
};

// Draws one episode of `a_body` against a fresh random interferer:
// interferer bytes, then the two distinct offsets, then both captures,
// all from `rng` in fixed order. Requires a_body to span at least 3
// codewords.
CollisionEpisode DrawCollisionEpisode(const phy::ChipCodebook& codebook,
                                      const BitVec& a_body,
                                      const CollisionEpisodeParams& params,
                                      Rng& rng);

}  // namespace ppr::collide
