#include "arq/pp_arq.h"

#include <algorithm>
#include <stdexcept>

#include "common/crc.h"
#include "softphy/runlength.h"

namespace ppr::arq {
namespace {

// After this many feedback rounds without convergence the receiver
// requests a full resend.
constexpr std::size_t kMaxPartialRounds = 8;

}  // namespace

SoftPhyBody::SoftPhyBody(std::size_t total_codewords,
                         std::size_t bits_per_codeword)
    : bits_per_codeword(bits_per_codeword),
      bits(total_codewords * bits_per_codeword, false),
      hints(total_codewords, kForcedBadHint) {
  if (bits.size() <= 32) {
    throw std::invalid_argument(
        "SoftPhyBody: body must exceed the 32-bit trailing CRC");
  }
}

void SoftPhyBody::Merge(const std::vector<phy::DecodedSymbol>& symbols) {
  if (symbols.size() != hints.size()) {
    throw std::invalid_argument("IngestInitial: codeword count mismatch");
  }
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i].hint <= hints[i]) Write(i, symbols[i]);
  }
  received = true;
}

void SoftPhyBody::Write(std::size_t cw, const phy::DecodedSymbol& symbol) {
  const auto bpc = static_cast<unsigned>(bits_per_codeword);
  hints[cw] = symbol.hint;
  bits.WriteUint(cw * bpc, symbol.symbol, bpc);
}

bool SoftPhyBody::CrcOk(const BitVec& body) {
  const std::size_t payload_bits = body.size() - 32;
  const auto stored =
      static_cast<std::uint32_t>(body.ReadUint(payload_bits, 32));
  return Crc32Bits(body.Slice(0, payload_bits)) == stored;
}

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
      body_(total_codewords, config.bits_per_codeword) {}

void PpArqReceiver::IngestInitial(
    const std::vector<phy::DecodedSymbol>& symbols) {
  body_.Merge(symbols);
}

void PpArqReceiver::IngestRetransmission(
    const std::vector<ReceivedSegment>& segments) {
  for (const auto& seg : segments) {
    if (seg.symbols.size() != seg.range.length ||
        seg.range.offset + seg.range.length > total_codewords()) {
      continue;  // malformed segment; ignore, next round re-requests
    }
    const bool solicited = CoveredByRequests(seg.range, last_requests_);
    for (std::size_t k = 0; k < seg.range.length; ++k) {
      const std::size_t cw = seg.range.offset + k;
      const auto& sym = seg.symbols[k];
      bool take = sym.hint <= body_.hints[cw];
      if (!solicited && !take) {
        // Gap correction: the sender says our stored copy is wrong. If
        // the new copy looks good, take it anyway; otherwise poison the
        // stored hint so the codeword is re-requested next round.
        if (sym.hint <= config_.eta) {
          take = true;
        } else {
          body_.hints[cw] = SoftPhyBody::kForcedBadHint;
        }
      }
      if (take) body_.Write(cw, sym);
    }
  }
}

std::vector<bool> PpArqReceiver::Labels() const {
  std::vector<bool> labels(total_codewords());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = body_.hints[i] <= config_.eta;
  }
  return labels;
}

std::optional<FeedbackPacket> PpArqReceiver::BuildFeedback() {
  if (Complete()) return std::nullopt;
  ++rounds_;

  FeedbackPacket fb;
  fb.seq = seq_;

  if (rounds_ > kMaxPartialRounds) {
    // Escalate: partial recovery is not converging (e.g. persistent
    // misses below threshold); ask for everything.
    fb.requests = {CodewordRange{0, total_codewords()}};
    last_requests_ = fb.requests;
    return fb;
  }

  const auto runs = softphy::ToRunLengthForm(Labels());
  if (runs.AllGood()) {
    // CRC fails yet everything is labeled good: an undetected miss.
    // Request the full body; the gap-verification path would also catch
    // this, but only after a round trip.
    fb.requests = {CodewordRange{0, total_codewords()}};
    last_requests_ = fb.requests;
    return fb;
  }

  ChunkingConfig chunk_config;
  chunk_config.packet_bits = body_.bits.size();
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
  return EncodeFeedback(feedback, body_.bits, total_codewords(),
                        config_.bits_per_codeword, config_.checksum_bits);
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
