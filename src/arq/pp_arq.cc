#include "arq/pp_arq.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/crc.h"
#include "softphy/runlength.h"

namespace ppr::arq {
namespace {

constexpr double kForcedBadHint = std::numeric_limits<double>::infinity();

}  // namespace

PpArqSender::PpArqSender(BitVec body_bits, std::uint16_t seq,
                         const PpArqConfig& config)
    : body_(std::move(body_bits)), seq_(seq), config_(config) {
  if (body_.size() % config_.bits_per_codeword != 0) {
    throw std::invalid_argument(
        "PpArqSender: body bits must be a whole number of codewords");
  }
}

BitVec PpArqSender::MakeBody(const BitVec& payload_bits) {
  BitVec body = payload_bits;
  body.AppendUint(Crc32Bits(payload_bits), 32);
  return body;
}

RetransmissionPacket PpArqSender::HandleFeedback(
    const DecodedFeedback& feedback) const {
  const std::size_t bpc = config_.bits_per_codeword;
  std::vector<CodewordRange> to_send = feedback.feedback.requests;

  // Verify every gap: a mismatch means the receiver is holding wrong
  // bits it believes are good (a SoftPHY miss); resend that gap too.
  for (const auto& gap : feedback.gaps) {
    const BitVec original =
        body_.Slice(gap.range.offset * bpc, gap.range.length * bpc);
    bool matches = false;
    if (gap.literal) {
      matches = original == gap.literal_bits;
    } else {
      matches = Crc32Bits(original) == gap.crc32;
    }
    if (!matches) to_send.push_back(gap.range);
  }

  std::sort(to_send.begin(), to_send.end(),
            [](const CodewordRange& a, const CodewordRange& b) {
              return a.offset < b.offset;
            });
  // Merge adjacent/overlapping ranges so segments stay disjoint.
  std::vector<CodewordRange> merged;
  for (const auto& r : to_send) {
    if (!merged.empty() &&
        r.offset <= merged.back().offset + merged.back().length) {
      const std::size_t end = std::max(
          merged.back().offset + merged.back().length, r.offset + r.length);
      merged.back().length = end - merged.back().offset;
    } else {
      merged.push_back(r);
    }
  }

  RetransmissionPacket out;
  out.seq = seq_;
  for (const auto& r : merged) {
    RetransmitSegment seg;
    seg.range = r;
    seg.bits = body_.Slice(r.offset * bpc, r.length * bpc);
    out.segments.push_back(std::move(seg));
  }
  return out;
}

PpArqReceiver::PpArqReceiver(std::uint16_t seq, std::size_t total_codewords,
                             const PpArqConfig& config)
    : config_(config),
      seq_(seq),
      bits_(total_codewords * config.bits_per_codeword, false),
      hints_(total_codewords, kForcedBadHint) {
  if (total_codewords * config.bits_per_codeword <= 32) {
    throw std::invalid_argument(
        "PpArqReceiver: body must exceed the 32-bit trailing CRC");
  }
}

void PpArqReceiver::IngestInitial(
    const std::vector<phy::DecodedSymbol>& symbols) {
  if (symbols.size() != hints_.size()) {
    throw std::invalid_argument("IngestInitial: codeword count mismatch");
  }
  const auto bpc = static_cast<unsigned>(config_.bits_per_codeword);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i].hint <= hints_[i]) {
      hints_[i] = symbols[i].hint;
      bits_.WriteUint(i * bpc, symbols[i].symbol, bpc);
    }
  }
  received_anything_ = true;
}

void PpArqReceiver::IngestRetransmission(
    const std::vector<ReceivedSegment>& segments) {
  const auto bpc = static_cast<unsigned>(config_.bits_per_codeword);
  for (const auto& seg : segments) {
    if (seg.symbols.size() != seg.range.length ||
        seg.range.offset + seg.range.length > hints_.size()) {
      continue;  // malformed segment; ignore, next round re-requests
    }
    const bool solicited = CoveredByRequests(seg.range, last_requests_);
    for (std::size_t k = 0; k < seg.range.length; ++k) {
      const std::size_t cw = seg.range.offset + k;
      const auto& sym = seg.symbols[k];
      bool take = sym.hint <= hints_[cw];
      if (!solicited && !take) {
        // Gap correction: the sender says our stored copy is wrong. If
        // the new copy looks good, take it anyway; otherwise poison the
        // stored hint so the codeword is re-requested next round.
        if (sym.hint <= config_.eta) {
          take = true;
        } else {
          hints_[cw] = kForcedBadHint;
        }
      }
      if (take) {
        hints_[cw] = sym.hint;
        bits_.WriteUint(cw * bpc, sym.symbol, bpc);
      }
    }
  }
}

bool PpArqReceiver::Complete() const {
  if (!received_anything_) return false;
  const std::size_t payload_bits = bits_.size() - 32;
  const BitVec payload = bits_.Slice(0, payload_bits);
  const auto stored_crc =
      static_cast<std::uint32_t>(bits_.ReadUint(payload_bits, 32));
  return Crc32Bits(payload) == stored_crc;
}

std::vector<bool> PpArqReceiver::Labels() const {
  std::vector<bool> labels(hints_.size());
  for (std::size_t i = 0; i < hints_.size(); ++i) {
    labels[i] = hints_[i] <= config_.eta;
  }
  return labels;
}

std::optional<FeedbackPacket> PpArqReceiver::BuildFeedback() {
  if (Complete()) return std::nullopt;
  ++rounds_;

  FeedbackPacket fb;
  fb.seq = seq_;

  if (rounds_ > config_.max_partial_rounds) {
    // Escalate: partial recovery is not converging (e.g. persistent
    // misses below threshold); ask for everything.
    fb.requests = {CodewordRange{0, hints_.size()}};
    last_requests_ = fb.requests;
    return fb;
  }

  const auto runs = softphy::ToRunLengthForm(Labels());
  if (runs.AllGood()) {
    // CRC fails yet everything is labeled good: an undetected miss.
    // Request the full body; the gap-verification path would also catch
    // this, but only after a round trip.
    fb.requests = {CodewordRange{0, hints_.size()}};
    last_requests_ = fb.requests;
    return fb;
  }

  ChunkingConfig chunk_config;
  chunk_config.packet_bits = bits_.size();
  chunk_config.checksum_bits = config_.checksum_bits;
  chunk_config.bits_per_codeword = config_.bits_per_codeword;
  const auto chunking = ComputeOptimalChunks(runs, chunk_config);
  fb.requests.reserve(chunking.chunks.size());
  for (const auto& c : chunking.chunks) {
    fb.requests.push_back(CodewordRange{c.offset_codewords, c.length_codewords});
  }
  last_requests_ = fb.requests;
  return fb;
}

BitVec PpArqReceiver::EncodeFeedbackWire(const FeedbackPacket& feedback) const {
  return EncodeFeedback(feedback, bits_, hints_.size(),
                        config_.bits_per_codeword, config_.checksum_bits);
}

BitVec PpArqReceiver::AssembledPayload() const {
  return bits_.Slice(0, bits_.size() - 32);
}

bool CoveredByRequests(const CodewordRange& range,
                       const std::vector<CodewordRange>& requests) {
  for (const auto& r : requests) {
    if (range.offset >= r.offset &&
        range.offset + range.length <= r.offset + r.length) {
      return true;
    }
  }
  return false;
}

}  // namespace ppr::arq
