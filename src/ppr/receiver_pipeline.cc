#include "ppr/receiver_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "phy/spreader.h"

namespace ppr::core {
namespace {

constexpr std::size_t kChipsPerOctet = 2 * phy::kChipsPerSymbol;

phy::SampleVec ModulatePattern(const phy::ModemConfig& modem,
                               const std::vector<std::uint8_t>& octets) {
  const phy::ChipCodebook codebook;
  const phy::MskModulator modulator(modem);
  const BitVec chips =
      phy::SpreadBits(codebook, BitVec::FromBytes(octets));
  return modulator.Modulate(chips);
}

}  // namespace

std::vector<phy::DecodedSymbol> RecoveredFrame::PayloadSymbols() const {
  const std::size_t first = frame::kHeaderOctets * 2;
  const std::size_t count = static_cast<std::size_t>(header.length) * 2;
  if (first + count > body_symbols.size()) return {};
  return {body_symbols.begin() + static_cast<std::ptrdiff_t>(first),
          body_symbols.begin() + static_cast<std::ptrdiff_t>(first + count)};
}

BitVec RecoveredFrame::PayloadBits() const {
  BitVec bits;
  for (const auto& s : PayloadSymbols()) bits.AppendUint(s.symbol, 4);
  return bits;
}

FrameModulator::FrameModulator(const phy::ModemConfig& config)
    : modulator_(config) {}

phy::SampleVec FrameModulator::Modulate(
    const frame::FrameHeader& header,
    std::span<const std::uint8_t> payload) const {
  return ModulateOctets(frame::BuildFrameOctets(header, payload));
}

phy::SampleVec FrameModulator::ModulateOctets(
    std::span<const std::uint8_t> octets) const {
  const BitVec chips =
      phy::SpreadBits(codebook_, BitVec::FromBytes(octets));
  return modulator_.Modulate(chips);
}

ReceiverPipeline::ReceiverPipeline(const PipelineConfig& config)
    : config_(config),
      demod_(config.modem),
      preamble_correlator_(
          ModulatePattern(config.modem, frame::PreamblePatternOctets())),
      postamble_correlator_(
          ModulatePattern(config.modem, frame::PostamblePatternOctets())) {}

double ReceiverPipeline::PreambleScoreAt(const phy::SampleVec& samples,
                                         std::size_t n) const {
  return preamble_correlator_.ScoreAt(samples, n);
}

double ReceiverPipeline::PostambleScoreAt(const phy::SampleVec& samples,
                                          std::size_t n) const {
  return postamble_correlator_.ScoreAt(samples, n);
}

std::vector<phy::DecodedSymbol> ReceiverPipeline::DecodeSymbols(
    const phy::SampleVec& samples, std::int64_t chip0_sample,
    std::size_t num_symbols, double carrier_phase) const {
  const int sps = config_.modem.samples_per_chip;
  // Derotate by the sync-derived phase estimate so the I/Q axes align
  // with the transmission regardless of its carrier phase.
  const phy::Sample derotate{std::cos(-carrier_phase),
                             std::sin(-carrier_phase)};
  std::vector<double> soft(num_symbols * phy::kChipsPerSymbol, 0.0);
  for (std::size_t k = 0; k < soft.size(); ++k) {
    const std::int64_t base =
        chip0_sample + static_cast<std::int64_t>(k) * sps;
    const phy::Sample c =
        derotate * demod_.DemodulateChipComplexAt(samples, base);
    soft[k] = (k % 2 == 0) ? c.real() : c.imag();
  }
  return phy::DespreadSoft(codebook_, soft, config_.hint_kind);
}

std::optional<RecoveredFrame> ReceiverPipeline::DecodeFromPreamble(
    const phy::SampleVec& samples, const phy::SyncHit& hit) const {
  const int sps = config_.modem.samples_per_chip;
  const std::int64_t frame_start = static_cast<std::int64_t>(hit.sample_offset);
  const std::int64_t header_chip0 =
      frame_start + static_cast<std::int64_t>(frame::kSyncPrefixOctets *
                                              kChipsPerOctet) *
                        sps;

  const auto header_symbols =
      DecodeSymbols(samples, header_chip0, frame::kHeaderOctets * 2, hit.phase);
  const auto header_octets =
      phy::DecodedSymbolsToBits(header_symbols).ToBytes();
  const auto header = frame::DecodeHeader(header_octets);
  if (!header.has_value()) return std::nullopt;
  if (header->length > config_.max_payload_octets) return std::nullopt;

  const frame::FrameLayout layout(header->length);
  const auto body_tx =
      DecodeSymbols(samples, header_chip0, layout.BodyOctets() * 2, hit.phase);

  RecoveredFrame frame;
  frame.sync = RecoveredFrame::SyncSource::kPreamble;
  frame.sync_score = hit.score;
  frame.frame_start_sample = frame_start;
  frame.header = *header;
  frame.body_symbols = phy::ToLogicalNibbleOrder(body_tx);
  return frame;
}

std::optional<RecoveredFrame> ReceiverPipeline::DecodeFromPostamble(
    const phy::SampleVec& samples, const phy::SyncHit& hit,
    const std::vector<RecoveredFrame>& found) const {
  const int sps = config_.modem.samples_per_chip;
  const std::int64_t postamble_chip0 =
      static_cast<std::int64_t>(hit.sample_offset);

  // Step 1-3 (section 4): roll back the trailer, parse it, verify its
  // checksum.
  const std::int64_t trailer_chip0 =
      postamble_chip0 -
      static_cast<std::int64_t>(frame::kTrailerOctets * kChipsPerOctet) * sps;
  const auto trailer_symbols =
      DecodeSymbols(samples, trailer_chip0, frame::kTrailerOctets * 2,
                    hit.phase);
  const auto trailer_octets =
      phy::DecodedSymbolsToBits(trailer_symbols).ToBytes();
  const auto header = frame::DecodeHeader(trailer_octets);
  if (!header.has_value()) return std::nullopt;
  if (header->length > config_.max_payload_octets) return std::nullopt;

  // Step 4: roll back the full frame and decode as much as possible.
  const frame::FrameLayout layout(header->length);
  const std::int64_t frame_start =
      postamble_chip0 -
      static_cast<std::int64_t>(layout.PostambleOffset() * kChipsPerOctet) *
          sps;
  // Skip frames already recovered, before decoding the body: same start
  // offset within a couple of chips of tolerance.
  const bool duplicate =
      std::any_of(found.begin(), found.end(), [&](const RecoveredFrame& f) {
        return std::abs(f.frame_start_sample - frame_start) <= 4 * sps;
      });
  if (duplicate) return std::nullopt;

  const std::int64_t header_chip0 =
      frame_start + static_cast<std::int64_t>(frame::kSyncPrefixOctets *
                                              kChipsPerOctet) *
                        sps;
  const auto body_tx =
      DecodeSymbols(samples, header_chip0, layout.BodyOctets() * 2, hit.phase);

  RecoveredFrame frame;
  frame.sync = RecoveredFrame::SyncSource::kPostamble;
  frame.sync_score = hit.score;
  frame.frame_start_sample = frame_start;
  frame.header = *header;
  frame.header_from_trailer = true;
  frame.body_symbols = phy::ToLogicalNibbleOrder(body_tx);
  return frame;
}

std::vector<RecoveredFrame> ReceiverPipeline::Process(
    const phy::SampleVec& samples) const {
  std::vector<RecoveredFrame> frames;
  // Both sync patterns are five octets, so one pass correlates both.
  const phy::WaveformCorrelator* const correlators[] = {
      &preamble_correlator_, &postamble_correlator_};
  const auto hits = phy::FindPeaksTogether(
      correlators, samples, config_.sync_threshold,
      preamble_correlator_.ReferenceLength());

  // Preamble path first, as a live receiver would.
  for (const auto& hit : hits[0]) {
    if (auto frame = DecodeFromPreamble(samples, hit)) {
      frames.push_back(std::move(*frame));
    }
  }

  // Postamble path recovers frames the preamble path missed.
  for (const auto& hit : hits[1]) {
    if (auto frame = DecodeFromPostamble(samples, hit, frames)) {
      frames.push_back(std::move(*frame));
    }
  }

  std::sort(frames.begin(), frames.end(),
            [](const RecoveredFrame& a, const RecoveredFrame& b) {
              return a.frame_start_sample < b.frame_start_sample;
            });
  return frames;
}

}  // namespace ppr::core
