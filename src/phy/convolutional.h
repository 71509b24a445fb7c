// Convolutional coding with a soft-output Viterbi decoder — the
// alternative receiver structure of Figure 1 and the SOVA confidence
// hint of sections 3.1 and 8.1: "a particularly interesting instance of
// a confidence metric when convolutional decoding is used ... is the
// output of the Viterbi decoder".
//
// The encoder is the classic rate-1/2, constraint-length-7 code
// (polynomials 0o171 and 0o133, the "Voyager" code used across wireless
// standards). The decoder runs hard-input Viterbi and emits a per-bit
// reliability: the path-metric margin between the survivor and its
// best competitor at each trellis step (a SOVA-style hint — larger
// margin means higher confidence, so the SoftPHY hint is its negation
// to preserve the lower-is-better monotonicity contract).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "phy/despreader.h"

namespace ppr::phy {

struct ConvolutionalCode {
  // Generator polynomials, constraint length 7 (64 states).
  static constexpr unsigned kConstraint = 7;
  static constexpr unsigned kNumStates = 1u << (kConstraint - 1);
  static constexpr std::uint32_t kG0 = 0171;
  static constexpr std::uint32_t kG1 = 0133;
};

// Encodes `bits` at rate 1/2, appending (kConstraint - 1) zero tail
// bits so the trellis terminates in state 0. Output length is
// 2 * (bits.size() + 6).
BitVec ConvolutionalEncode(const BitVec& bits);

// One decoded information bit with its SOVA-style reliability.
struct ViterbiBit {
  bool bit = false;
  // Minimum survivor-vs-competitor metric margin over the traceback
  // window for this bit; larger = more reliable.
  double reliability = 0.0;
};

struct ViterbiResult {
  BitVec bits;                     // decoded information bits (tail removed)
  std::vector<double> reliability; // per decoded bit, larger = better
  double path_metric = 0.0;        // total metric of the winning path
};

// Hard-input Viterbi: `coded` holds the received code bits (possibly
// corrupted); metric is Hamming distance. `info_bits` is the number of
// information bits the caller expects (excluding the tail).
ViterbiResult ViterbiDecodeHard(const BitVec& coded, std::size_t info_bits);

// Groups Viterbi per-bit reliabilities into 4-bit "codeword" hints so
// the convolutional receiver plugs into the same SoftPHY interface as
// the DSSS despreader: symbol k gets the weakest reliability among its
// four bits, negated (lower hint = more confident).
std::vector<DecodedSymbol> ViterbiToSoftPhySymbols(const ViterbiResult& result);

}  // namespace ppr::phy
