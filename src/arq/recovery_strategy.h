// Pluggable recovery strategies for PP-ARQ.
//
// A strategy owns one question: given the receiver's view of a partial
// packet, what goes on the air to finish it? Two implementations ship,
// selected by four modes:
//
//   kChunkRetransmit — the paper's protocol: the receiver's dynamic
//     program picks chunks, the sender retransmits exactly those bits
//     (PpArqSender/PpArqReceiver).
//   The coded strategy, for the other three modes. Feedback carries
//     one requested repair count per repair party (sized adaptively,
//     arq/adaptive_burst.h), and each party streams systematic RLNC
//     repair symbols (src/fec/) until the destination's decoder
//     reaches full rank. Repair symbols carry their own CRC-32, so
//     corrupted ones are dropped rather than poisoning the basis. The
//     modes differ only in the relay roster:
//     kCodedRepair — the S-PRAC direction: no relays, so the source
//       is the one repair party.
//     kRelayCodedRepair — the Crelay direction, generalized to
//       config.relay_parties relays: overhearing relays with their own
//       partial copies of the initial transmission also answer the
//       destination's (broadcast) feedback, each streaming masked RLNC
//       equations from its own partition of the seed space; the
//       destination splits each round's burst across all repair
//       parties in proportion to their observed delivery rates, and
//       the session engine schedules relay airtime (ExOR-style
//       ranking + per-round budget, recovery_session.h). A roster of
//       0 is kCodedRepair, bit for bit.
//     kCollisionResolve — kCodedRepair's parties. The mode selects
//       collision episodes (collide/runner.h), whose listener joins
//       the session as one more party: the coded destination banks
//       the kEquations rows it hands over into the same decoder
//       session, evictable under a collision provenance tag.
//
// A strategy builds the session participants directly (source,
// destination, and relays where it has them). All parties of a
// strategy share a wire format for feedback; the session that runs
// them (arq/recovery_session.h) only moves opaque bits. Frame
// descriptors (ranges, coefficient seeds, masks) travel reliably with
// each repair frame, exactly as chunk-mode segment descriptors do.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arq/pp_arq.h"
#include "common/bitvec.h"
#include "phy/despreader.h"

namespace ppr::arq {

// One forward-direction repair frame.
struct RepairFrame {
  RepairFrame() = default;
  RepairFrame(CodewordRange r, std::uint32_t a, BitVec b)
      : range(r), aux(a), bits(std::move(b)) {}

  // Chunk mode: the segment's codeword extent in the packet body.
  // Coded mode: the extent of this frame's own bits (offset 0).
  CodewordRange range;
  std::uint32_t aux = 0;  // coded mode: base repair-coefficient seed
  BitVec bits;            // crosses the body channel
  // Relay-coded descriptor extras, carried reliably like range/aux.
  // `origin` is the repair party (0 = source, 1+ = relay id); a
  // non-empty `coef_mask` (one bit per FEC source symbol) restricts the
  // seed's coefficient vector to the symbols the origin actually holds;
  // `suspicion` is the origin's worst SoftPHY hint across those
  // symbols, ordering eviction if the equation turns out poisoned.
  std::uint8_t origin = 0;
  BitVec coef_mask;
  double suspicion = 0.0;
};

// A repair frame as decoded at the receiver.
struct ReceivedRepairFrame {
  ReceivedRepairFrame() = default;
  ReceivedRepairFrame(CodewordRange r, std::uint32_t a,
                      std::vector<phy::DecodedSymbol> s)
      : range(r), aux(a), symbols(std::move(s)) {}

  CodewordRange range;
  std::uint32_t aux = 0;
  std::vector<phy::DecodedSymbol> symbols;
  std::uint8_t origin = 0;
  BitVec coef_mask;
  double suspicion = 0.0;
};

// The generalized coded feedback wire: seq, then an explicit party
// count, then one requested repair-symbol count per party — index 0 is
// always the source, 1..N the relay ids. Two-party coded repair is the
// party_count == 1 special case; the original Crelay wire's fixed
// (requested_src, requested_relay) pair is party_count == 2. Zero
// counts are legal (a party the destination wants silent this round).
struct CodedFeedbackWire {
  std::uint16_t seq = 0;
  std::vector<std::size_t> requested;  // index = repair party id

  bool operator==(const CodedFeedbackWire&) const = default;
};

// Wire layout: seq (16 bits), party_count (8 bits, >= 1), then
// party_count 16-bit counts. Decode returns nullopt on a truncated
// wire or a zero party count.
BitVec EncodeCodedFeedbackWire(const CodedFeedbackWire& feedback);
std::optional<CodedFeedbackWire> DecodeCodedFeedbackWire(const BitVec& wire);

// The session roles a strategy builds (arq/recovery_session.h).
class RecoveryParticipant;
class DestinationParticipant;

// Factory for the parties of one strategy.
class RecoveryStrategy {
 public:
  virtual ~RecoveryStrategy() = default;

  // The source answers every feedback message with exactly one repair
  // message, even one with no frames: the session charges one data
  // transmission per repair message. Feedback frames are reliable at
  // this layer, so an unparsable wire is a codec bug and the source
  // throws std::logic_error. `body_bits` is payload || CRC-32
  // (PpArqSender::MakeBody).
  virtual std::unique_ptr<RecoveryParticipant> MakeSourceParticipant(
      const BitVec& body_bits, std::uint16_t seq) const = 0;
  // The destination opens each round with its broadcast feedback (none
  // once complete) and ingests the frames of every repair message.
  virtual std::unique_ptr<DestinationParticipant> MakeDestinationParticipant(
      std::uint16_t seq, std::size_t total_codewords) const = 0;
  // An overhearing relay (relay_id >= 1 keys its repair-seed partition);
  // nullptr unless relay_id is on the strategy's roster (1..roster size).
  virtual std::unique_ptr<RecoveryParticipant> MakeRelayParticipant(
      std::uint8_t relay_id, std::uint16_t seq,
      std::size_t total_codewords) const;
};

// Builds the strategy selected by `config.recovery`.
std::unique_ptr<RecoveryStrategy> MakeRecoveryStrategy(
    const PpArqConfig& config);

}  // namespace ppr::arq
