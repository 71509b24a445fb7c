#include "arq/link_sim.h"

#include <memory>
#include <stdexcept>

#include "arq/recovery_session.h"

namespace ppr::arq {

phy::DecodedSymbol ChipTransmitNibble(const phy::ChipCodebook& codebook,
                                      std::uint8_t nibble,
                                      const phy::ChipErrorRate& rate,
                                      Rng& rng) {
  const phy::ChipWord sent = codebook.Codeword(nibble);
  const phy::ChipWord received = sent ^ phy::SampleChipErrorMask(rng, rate);
  phy::DecodedSymbol d;
  int distance = 0;
  d.symbol = static_cast<std::uint8_t>(codebook.DecodeHard(received, &distance));
  d.hamming_distance = distance;
  d.hint = static_cast<double>(distance);
  return d;
}

BitVec SymbolsToLogicalBits(const std::vector<phy::DecodedSymbol>& symbols) {
  BitVec bits;
  for (const auto& s : symbols) bits.AppendUint(s.symbol, 4);
  return bits;
}

ArqRunStats RunPpArqExchange(const BitVec& payload_bits,
                             const PpArqConfig& config,
                             const BodyChannel& channel,
                             std::size_t max_rounds) {
  const auto strategy = MakeRecoveryStrategy(config);
  return RunRecoveryExchangeSession(payload_bits, config, *strategy, channel,
                                    max_rounds)
      .totals;
}

ArqRunStats RunWholePacketArq(const BitVec& payload_bits,
                              const BodyChannel& channel,
                              std::size_t max_rounds) {
  ArqRunStats stats;
  const BitVec body = PpArqSender::MakeBody(payload_bits);

  for (std::size_t round = 0; round < max_rounds; ++round) {
    stats.forward_bits += body.size();
    ++stats.data_transmissions;
    if (round > 0) stats.retransmission_bits.push_back(body.size());

    stats.feedback_bits += 1;  // ACK/NACK
    if (SoftPhyBody::CrcOk(SymbolsToLogicalBits(channel(body)))) {
      stats.success = true;
      return stats;
    }
  }
  return stats;
}

BodyChannel MakeChipErrorChannel(const phy::ChipCodebook& codebook,
                                 double chip_error_p, Rng& rng) {
  Rng* rng_ptr = &rng;
  const phy::ChipCodebook* cb = &codebook;
  const phy::ChipErrorRate rate(chip_error_p);
  return [cb, rate, rng_ptr](const BitVec& bits) {
    if (bits.size() % 4 != 0) {
      throw std::invalid_argument("channel: bits not a multiple of 4");
    }
    std::vector<phy::DecodedSymbol> out;
    out.reserve(bits.size() / 4);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      out.push_back(ChipTransmitNibble(*cb, nibble, rate, *rng_ptr));
    }
    return out;
  };
}

BodyChannel MakeGilbertElliottChannel(const phy::ChipCodebook& codebook,
                                      const GilbertElliottParams& params,
                                      Rng& rng) {
  // State persists across calls (shared_ptr keeps the lambda copyable).
  auto in_bad = std::make_shared<bool>(false);
  Rng* rng_ptr = &rng;
  const phy::ChipCodebook* cb = &codebook;
  const phy::ChipErrorRate good(params.chip_error_good);
  const phy::ChipErrorRate bad(params.chip_error_bad);
  return [cb, params, good, bad, rng_ptr, in_bad](const BitVec& bits) {
    if (bits.size() % 4 != 0) {
      throw std::invalid_argument("channel: bits not a multiple of 4");
    }
    std::vector<phy::DecodedSymbol> out;
    out.reserve(bits.size() / 4);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      if (*in_bad) {
        if (rng_ptr->Bernoulli(params.p_bad_to_good)) *in_bad = false;
      } else {
        if (rng_ptr->Bernoulli(params.p_good_to_bad)) *in_bad = true;
      }
      const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      out.push_back(
          ChipTransmitNibble(*cb, nibble, *in_bad ? bad : good, *rng_ptr));
    }
    return out;
  };
}

}  // namespace ppr::arq
