#include "phy/convolutional.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "common/popcount.h"

namespace ppr::phy {
namespace {

constexpr unsigned kStates = ConvolutionalCode::kNumStates;
constexpr unsigned kTail = ConvolutionalCode::kConstraint - 1;

// Output pair for (state, input). The 7-bit register is the new input
// in the LSB with the state's six previous bits above it.
struct Branch {
  std::uint8_t out0, out1;  // code bits
  std::uint8_t next;        // next state
};

std::array<std::array<Branch, 2>, kStates> BuildTrellis() {
  std::array<std::array<Branch, 2>, kStates> trellis{};
  for (unsigned s = 0; s < kStates; ++s) {
    for (unsigned b = 0; b < 2; ++b) {
      const std::uint32_t reg = (s << 1) | b;
      Branch br;
      br.out0 = static_cast<std::uint8_t>(
          PopCount(reg & ConvolutionalCode::kG0) & 1u);
      br.out1 = static_cast<std::uint8_t>(
          PopCount(reg & ConvolutionalCode::kG1) & 1u);
      br.next = static_cast<std::uint8_t>(reg & (kStates - 1));
      trellis[s][b] = br;
    }
  }
  return trellis;
}

const std::array<std::array<Branch, 2>, kStates>& Trellis() {
  static const auto trellis = BuildTrellis();
  return trellis;
}

}  // namespace

BitVec ConvolutionalEncode(const BitVec& bits) {
  const auto& trellis = Trellis();
  BitVec out;
  unsigned state = 0;
  const auto push = [&](unsigned b) {
    const Branch& br = trellis[state][b];
    out.PushBack(br.out0 != 0);
    out.PushBack(br.out1 != 0);
    state = br.next;
  };
  for (std::size_t i = 0; i < bits.size(); ++i) {
    push(bits.Get(i) ? 1u : 0u);
  }
  for (unsigned i = 0; i < kTail; ++i) push(0u);  // terminate at state 0
  return out;
}

ViterbiResult ViterbiDecodeHard(const BitVec& coded, std::size_t info_bits) {
  const std::size_t steps = info_bits + kTail;
  if (coded.size() != 2 * steps) {
    throw std::invalid_argument("ViterbiDecodeHard: length mismatch");
  }
  const auto& trellis = Trellis();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<double> metric(kStates, kInf), next_metric(kStates, kInf);
  metric[0] = 0.0;  // encoder starts in state 0

  // Per step and state: chosen predecessor state, input bit, and the
  // merge margin (metric gap to the losing path; SOVA-style hint).
  struct Decision {
    std::uint8_t prev = 0;
    std::uint8_t bit = 0;
    double margin = 0.0;
  };
  std::vector<std::vector<Decision>> decisions(
      steps, std::vector<Decision>(kStates));

  for (std::size_t t = 0; t < steps; ++t) {
    const bool c0 = coded.Get(2 * t);
    const bool c1 = coded.Get(2 * t + 1);
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    // For each destination state track the best and second-best
    // incoming path.
    std::vector<double> second(kStates, kInf);
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] == kInf) continue;
      for (unsigned b = 0; b < 2; ++b) {
        const Branch& br = trellis[s][b];
        // Branch metric: Hamming distance to the received pair.
        const int distance = (c0 != (br.out0 != 0)) + (c1 != (br.out1 != 0));
        const double m = metric[s] + distance;
        if (m < next_metric[br.next]) {
          second[br.next] = next_metric[br.next];
          next_metric[br.next] = m;
          decisions[t][br.next] =
              Decision{static_cast<std::uint8_t>(s),
                       static_cast<std::uint8_t>(b), 0.0};
        } else if (m < second[br.next]) {
          second[br.next] = m;
        }
      }
    }
    for (unsigned ns = 0; ns < kStates; ++ns) {
      decisions[t][ns].margin =
          second[ns] == kInf ? 1e9 : second[ns] - next_metric[ns];
    }
    metric.swap(next_metric);
  }

  // Terminated trellis: trace back from state 0.
  ViterbiResult result;
  result.path_metric = metric[0];
  std::vector<std::uint8_t> bits(steps);
  std::vector<double> margins(steps);
  unsigned state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    const Decision& d = decisions[t][state];
    bits[t] = d.bit;
    margins[t] = d.margin;
    state = d.prev;
  }
  for (std::size_t t = 0; t < info_bits; ++t) {
    result.bits.PushBack(bits[t] != 0);
    result.reliability.push_back(margins[t]);
  }
  return result;
}

std::vector<DecodedSymbol> ViterbiToSoftPhySymbols(
    const ViterbiResult& result) {
  if (result.bits.size() % 4 != 0) {
    throw std::invalid_argument(
        "ViterbiToSoftPhySymbols: bits not a multiple of 4");
  }
  std::vector<DecodedSymbol> symbols;
  symbols.reserve(result.bits.size() / 4);
  for (std::size_t i = 0; i < result.bits.size(); i += 4) {
    DecodedSymbol d;
    d.symbol = static_cast<std::uint8_t>(result.bits.ReadUint(i, 4));
    double weakest = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < 4; ++b) {
      weakest = std::min(weakest, result.reliability[i + b]);
    }
    // Monotonicity contract: lower hint = more confident.
    d.hint = -weakest;
    d.hamming_distance = 0;
    symbols.push_back(d);
  }
  return symbols;
}

}  // namespace ppr::phy
