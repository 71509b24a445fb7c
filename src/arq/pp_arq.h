// PP-ARQ sender and receiver state machines (section 5.2, "the
// streaming ACK PP-ARQ protocol").
//
//   1. The sender transmits the full packet with a checksum appended.
//   2. The receiver decodes (possibly partially), labels codewords with
//      the SoftPHY threshold rule, and computes the optimal feedback
//      chunk set with the dynamic program of section 5.1.
//   3. The receiver sends the compact feedback packet (empty when the
//      packet checksum verifies).
//   4. The sender retransmits exactly the requested runs, plus any gap
//      whose verification data (CRC or literal bits) does not match what
//      it sent — this is how SoftPHY "misses" are caught and repaired.
//
// The protocol data unit covered here is the packet body: payload
// followed by its CRC-32 (PpArqSender::MakeBody). Every receiving party
// of every recovery strategy assembles it as a SoftPhyBody, defined
// here. Transport of feedback/retransmission frames is the link layer's
// job; tests drive these classes with synthetic DecodedSymbol streams.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "arq/chunking.h"
#include "arq/feedback.h"
#include "common/bitvec.h"
#include "phy/despreader.h"
#include "softphy/classifier.h"

namespace ppr::arq {

// How the sender answers feedback about a partial packet (see
// arq/recovery_strategy.h for the pluggable interface).
enum class RecoveryMode {
  // Section 5.2: retransmit the SoftPHY-flagged chunks verbatim.
  kChunkRetransmit,
  // The other three modes are one coded strategy with different
  // parties. Stream systematic RLNC repair symbols (src/fec/) sized by
  // the receiver's erasure estimate instead of literal chunk copies;
  // the source is the one repair party.
  kCodedRepair,
  // Crelay, generalized to N relays: coded repair where overhearing
  // relays with their own (partial) copies of the initial transmission
  // also stream repair equations, each from a relay-id-partitioned
  // seed space; the destination broadcasts per-party burst requests
  // split by observed delivery rate (arq/recovery_session.h runs the
  // multi-party exchange and schedules relay airtime). With no relays
  // it is kCodedRepair.
  kRelayCodedRepair,
  // Coded repair plus a collision-resolution listener (src/collide/).
  // The parties are kCodedRepair's; the mode selects collision
  // episodes, whose listener joins the session as a party and hands
  // the destination GF(256) equations distilled from collided
  // receptions (kEquations) — fully stripped ZigZag symbols as unit
  // equations, unresolved superpositions as two-term cross-cancelled
  // equations — banked under a collision-provenance tag so a poisoned
  // stripping chain is evicted as a group.
  kCollisionResolve,
};

struct PpArqConfig {
  double eta = softphy::kDefaultEta;  // SoftPHY threshold
  std::size_t bits_per_codeword = 4;
  std::size_t checksum_bits = 32;
  RecoveryMode recovery = RecoveryMode::kChunkRetransmit;
  // Coded repair: codewords per FEC symbol (symbol bits must be whole
  // octets). Burst sizing is adaptive (arq/adaptive_burst.h).
  std::size_t codewords_per_fec_symbol = 16;
  // kRelayCodedRepair: the relay roster size the session plans for.
  // The destination's feedback wire carries one requested count per
  // repair party (source first, then relay ids 1..relay_parties), and
  // MakeRelayParticipant builds ids in that range. 0 is the two-party
  // coded exchange; 1 the original single-relay Crelay configuration.
  std::size_t relay_parties = 1;
  // Per-round cap on TOTAL relay repair airtime (bits, descriptors
  // included); 0 = unlimited. Enforced by RecoverySession: relays are
  // serviced in ExOR order (best observed overhear quality first) and
  // each truncates or defers once the round's budget is spent.
  std::size_t relay_airtime_budget_bits = 0;
};

// The SoftPHY-labelled image of a packet body (payload || CRC-32) that
// a receiving party assembles: per codeword, the bits of the copy with
// the best (lowest) hint heard so far. PpArqReceiver, the coded
// destination and the overhearing relay (arq/recovery_strategy.cc)
// share it, so every party turns codewords into bits, and checks the
// trailing CRC-32, the same way.
struct SoftPhyBody {
  // The hint of a codeword with no trustworthy copy: never labelled
  // good, and replaced by any copy heard.
  static constexpr double kForcedBadHint =
      std::numeric_limits<double>::infinity();

  // Throws std::invalid_argument unless the body is longer than its
  // 32-bit CRC.
  SoftPhyBody(std::size_t total_codewords, std::size_t bits_per_codeword);

  // Best-hint merge of one copy of the whole body (one DecodedSymbol per
  // codeword): each codeword takes the new copy unless it holds one
  // with a strictly lower hint.
  void Merge(const std::vector<phy::DecodedSymbol>& symbols);
  // Overwrites codeword `cw`, hint included.
  void Write(std::size_t cw, const phy::DecodedSymbol& symbol);

  // True once a copy has been merged and the trailing CRC-32 verifies.
  bool Complete() const { return received && CrcOk(bits); }
  BitVec Payload() const { return bits.Slice(0, bits.size() - 32); }
  // True when the last 32 bits of `body` are the CRC-32 of the rest.
  static bool CrcOk(const BitVec& body);

  std::size_t bits_per_codeword;
  BitVec bits;
  std::vector<double> hints;  // one per codeword
  bool received = false;
};

// A retransmitted segment as decoded at the receiver: hints accompany
// each codeword so the receiver can decide whether the new copy is more
// trustworthy than what it holds.
struct ReceivedSegment {
  CodewordRange range;
  std::vector<phy::DecodedSymbol> symbols;  // one per codeword in range
};

// Sender side: owns the original packet body bits (payload || CRC-32).
class PpArqSender {
 public:
  PpArqSender(BitVec body_bits, std::uint16_t seq, const PpArqConfig& config);

  const BitVec& body_bits() const { return body_; }
  std::uint16_t seq() const { return seq_; }
  std::size_t total_codewords() const {
    return body_.size() / config_.bits_per_codeword;
  }

  // Builds the retransmission answering `feedback`: all requested
  // ranges, plus any gap whose verification data mismatches the original
  // (a receiver-side miss). Ranges are merged/sorted.
  RetransmissionPacket HandleFeedback(const DecodedFeedback& feedback) const;

  // Convenience: packet body for the initial transmission.
  static BitVec MakeBody(const BitVec& payload_bits);

 private:
  BitVec body_;
  std::uint16_t seq_;
  PpArqConfig config_;
};

// Receiver side: assembles the packet body across rounds.
class PpArqReceiver {
 public:
  PpArqReceiver(std::uint16_t seq, std::size_t total_codewords,
                const PpArqConfig& config);

  // Initial reception of the whole body (one DecodedSymbol per
  // codeword). Also used for full resends.
  void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols);

  // Patches the body with retransmitted segments. Segments the receiver
  // asked for replace stored codewords when the new hint is at least as
  // good; unsolicited segments (gap corrections: the sender detected the
  // stored bits were wrong) replace stored codewords when the new copy
  // looks good, and otherwise force the codeword bad so the next round
  // re-requests it.
  void IngestRetransmission(const std::vector<ReceivedSegment>& segments);

  // True once the assembled payload verifies against the assembled
  // CRC-32 (the last 32 bits of the body).
  bool Complete() const { return body_.Complete(); }

  // Feedback for the next round; nullopt when Complete(). After eight
  // partial rounds the request escalates to the entire body.
  std::optional<FeedbackPacket> BuildFeedback();

  // Wire encoding of the given feedback against the current assembly
  // (exposes the size the receiver actually pays).
  BitVec EncodeFeedbackWire(const FeedbackPacket& feedback) const;

  // Assembled body/payload.
  const BitVec& AssembledBody() const { return body_.bits; }
  BitVec AssembledPayload() const { return body_.Payload(); }

  std::size_t rounds() const { return rounds_; }
  std::size_t total_codewords() const { return body_.hints.size(); }

 private:
  std::vector<bool> Labels() const;

  PpArqConfig config_;
  std::uint16_t seq_;
  SoftPhyBody body_;
  std::vector<CodewordRange> last_requests_;
  std::size_t rounds_ = 0;
};

// True when `range` appears (exactly or as a sub-range) in `requests`.
bool CoveredByRequests(const CodewordRange& range,
                       const std::vector<CodewordRange>& requests);

}  // namespace ppr::arq
