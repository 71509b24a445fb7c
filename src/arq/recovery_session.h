// Multi-party recovery session: the message-routed protocol engine that
// runs every recovery exchange's participants.
//
// A session is a set of RecoveryParticipants — one source, one
// destination, any number of overhearing relays and, in the collision
// exchange, a listener beside the destination — connected by directed
// edges, each with its own BodyChannel (loss process). Participants
// never see the topology: they ingest typed, addressed SessionMessages
// and emit messages in response; the RecoverySession engine routes
// every emitted message. Three message types:
//
//   kFeedback — the destination's control wire, broadcast, reliable and
//     charged by its size.
//   kRepair — repair frames, charged as one data transmission; their
//     bits cross the per-edge channel of each (from, to) hop, so a
//     relay->destination hop suffers its own corruption, independent
//     of the source's.
//   kEquations — GF(256) rows (collide::CollisionEquation) a listener
//     beside the destination distilled from collided receptions it
//     already heard. Delivered to its addressee only, charged nothing,
//     and drawn through no channel: it never crosses the air.
//
// One round = every non-destination party opens, in id order (only a
// listener emits here: its equations, in the first round), then the
// destination opens last with its feedback (broadcast: every other
// party hears it for free — feedback frames are tiny and modeled
// reliable, as in arq/link_sim.h), then every reply is routed until the
// round drains: the source answers feedback with repair, a relay
// answers with its own repair, the destination ingests both.
//
// The two-party configuration is the paper's sender/receiver loop: each
// round one feedback wire, one repair message (one data transmission,
// even with no frames), its frames crossing the one channel in order.
// That keeps kChunkRetransmit bit-for-bit identical to the paper's
// protocol. Any number of relays plug in as additional participants
// and edges — one runner, RunMultiRelayRecoveryExchange, builds every
// roster, the empty one included — and the collision exchange
// (collide/runner.h) adds one listener.
//
// Relay airtime scheduling (ExOR-style): when a per-round relay
// airtime budget is set, the engine services relay parties in
// descending order of their self-reported RepairQuality (the observed
// bottleneck quality of their overheard copy; ties broken by party id)
// and hands each the budget still unspent this round. A relay
// truncates its burst to fit and defers outright when nothing remains,
// so a dense overhearer set cannot all stream at once — exactly the
// deferral discipline ExOR's forwarder list imposes on opportunistic
// next hops. The source and the listener are never budgeted: the
// source's repair stream is the correctness backstop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "arq/link_sim.h"
#include "arq/recovery_strategy.h"
#include "collide/equations.h"
#include "common/bitvec.h"

namespace ppr::arq {

using PartyId = std::size_t;
inline constexpr PartyId kBroadcastId = static_cast<PartyId>(-1);
// "No budget": an effectively infinite per-round relay airtime budget.
inline constexpr std::size_t kNoAirtimeBudget = static_cast<std::size_t>(-1);

enum class PartyRole { kSource, kDestination, kRelay, kListener };
enum class SessionMessageType { kFeedback, kRepair, kEquations };

// A message as emitted by a participant. `from` is stamped by the
// engine; `to` defaults to broadcast (every other party).
struct SessionMessage {
  SessionMessageType type = SessionMessageType::kFeedback;
  PartyId from = kBroadcastId;
  PartyId to = kBroadcastId;
  BitVec feedback_wire;             // kFeedback: reliable control bits
  std::vector<RepairFrame> frames;  // kRepair: bits cross the edge channel
  // kEquations: rows for the addressee, handed over off the air.
  std::vector<collide::CollisionEquation> equations;
  // Airtime of the whole message, descriptors included. Ignored for
  // kFeedback (the wire's size is the airtime) and kEquations.
  std::size_t wire_bits = 0;
};

// The same message as seen by one recipient: repair bits have crossed
// that recipient's edge channel and arrive as decoded codewords.
struct DeliveredMessage {
  SessionMessageType type = SessionMessageType::kFeedback;
  PartyId from = kBroadcastId;
  PartyId to = kBroadcastId;
  BitVec feedback_wire;
  std::vector<ReceivedRepairFrame> frames;
  std::vector<collide::CollisionEquation> equations;
  // Relay parties only: the round's still-unspent relay airtime (bits)
  // at the moment this message reached them. A budgeted relay must
  // keep its repair reply's wire_bits within this, truncating or
  // deferring as needed; kNoAirtimeBudget means unbudgeted.
  std::size_t relay_budget_bits = kNoAirtimeBudget;
};

class RecoveryParticipant {
 public:
  virtual ~RecoveryParticipant() = default;

  virtual PartyRole role() const = 0;

  // This party's own copy of the initial transmission, as heard over its
  // edge from the source (one DecodedSymbol per codeword). Parties with
  // no edge from the source are never called.
  virtual void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols) = 0;

  // Round opener. Non-destination parties open first, in id order (a
  // listener hands over its equations here); the destination opens
  // last, with its feedback. An empty result from the destination ends
  // the exchange.
  virtual std::vector<SessionMessage> StartRound() { return {}; }

  // ExOR-style self-ranking for relay airtime scheduling: relays
  // return their observed bottleneck quality (higher = served first
  // when a round's relay airtime is budgeted). Non-relay parties keep
  // the default.
  virtual double RepairQuality() { return 0.0; }

  // Typed, addressed ingest; replies are routed within the same round.
  virtual std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) = 0;
};

// The destination additionally owns completion and the assembled packet.
class DestinationParticipant : public RecoveryParticipant {
 public:
  PartyRole role() const final { return PartyRole::kDestination; }
  virtual bool Complete() const = 0;
  virtual BitVec AssembledPayload() const = 0;
  // Decoder rank the kEquations rows it banked added; 0 for a
  // destination that does not bank them.
  virtual std::size_t EquationRank() const { return 0; }
};

// Per-party traffic, indexed by PartyId (the destination's entry counts
// its feedback; repair parties count data-direction airtime after the
// initial transmission; a listener's entry stays zero).
struct PartyTraffic {
  std::size_t repair_bits = 0;
  std::size_t repair_messages = 0;
  std::size_t feedback_bits = 0;
};

struct SessionRunStats {
  ArqRunStats totals;
  std::vector<PartyTraffic> parties;
  // Feedback rounds executed. Not derivable from
  // totals.data_transmissions in multi-party sessions, where one round
  // can carry several repair messages.
  std::size_t rounds = 0;
  // Relay airtime scheduling: the largest per-round total of relay
  // repair bits (the quantity a finite budget caps), and how many
  // budgeted feedback deliveries to a relay produced no repair reply —
  // its turn in the ExOR order came with too little of the round's
  // airtime left to afford a frame, so it deferred. (Only ticks when a
  // budget is set; a relay silenced for other reasons — zero requested,
  // nothing trusted — also counts, so read it as "budgeted turns that
  // put nothing on the air".)
  std::size_t max_round_relay_bits = 0;
  std::size_t relay_deferrals = 0;
};

// One directed data edge: the loss process for repair bits on the
// from -> to hop. Feedback does not consult channels (reliable); a
// kRepair message is simply not heard on edges without a channel.
struct SessionEdge {
  PartyId from = kBroadcastId;
  PartyId to = kBroadcastId;
  BodyChannel channel;
};

// Correlated initial delivery: TransmitInitial(from, body) makes ONE
// transmission on `channel` and hands reception i to listeners[i],
// instead of pushing the body through each per-edge channel privately.
// Edges from `from` then carry only post-initial (repair) traffic.
// Backed by a shared medium (arq/chip_medium.h or ppr/medium.h) this
// is what makes collisions hit the destination and the overhearing
// relays together.
struct SessionBroadcast {
  PartyId from = kBroadcastId;
  std::vector<PartyId> listeners;
  BroadcastBodyChannel channel;
};

// The whole topology a session needs, consumed at construction. Party
// ids are assigned later by AddParty in call order, so edges name
// parties that do not exist yet; the session validates the topology
// against the roster when traffic first moves (TransmitInitial / Run).
// Nothing changes the topology afterwards.
struct SessionConfig {
  std::vector<SessionEdge> edges;
  std::optional<SessionBroadcast> initial_broadcast;
  // Per-round cap on total relay repair airtime (bits, descriptors
  // included); 0 means unlimited. See the ExOR scheduling note atop
  // this header.
  std::size_t relay_airtime_budget_bits = 0;
};

class RecoverySession {
 public:
  explicit RecoverySession(SessionConfig config);

  // Registers a participant; ids are assigned in call order and double
  // as the routing order for broadcast delivery. Exactly one
  // destination is required by Run().
  PartyId AddParty(std::unique_ptr<RecoveryParticipant> participant);

  // The initial packet transmission: one broadcast from `source`; every
  // party with an incoming edge from it ingests its own loss-process
  // copy. Counts one data transmission of body.size() bits.
  void TransmitInitial(PartyId source, const BitVec& body);

  // Runs feedback rounds until the destination stops emitting feedback
  // (success) or max_rounds is reached (success = the destination's
  // completeness).
  SessionRunStats Run(std::size_t max_rounds);

  RecoveryParticipant& party(PartyId id) { return *parties_.at(id); }

 private:
  void ValidateTopology();
  // One feedback round: the other parties open, then the destination,
  // and every reply routes until the round drains. Returns false,
  // without counting a round, when the destination emitted no
  // feedback: the exchange is complete.
  bool RunRound(DestinationParticipant& destination);
  void Deliver(SessionMessage msg);
  void Account(const SessionMessage& msg);
  std::vector<PartyId> RecipientOrder(const SessionMessage& msg);

  std::vector<std::unique_ptr<RecoveryParticipant>> parties_;
  PartyId destination_id_ = kBroadcastId;  // kBroadcastId: none yet
  std::map<std::pair<PartyId, PartyId>, BodyChannel> edges_;
  PartyId broadcast_from_ = kBroadcastId;
  std::vector<PartyId> broadcast_listeners_;
  BroadcastBodyChannel broadcast_channel_;
  SessionRunStats stats_;
  std::size_t relay_airtime_budget_ = kNoAirtimeBudget;  // per round
  std::size_t round_budget_left_ = kNoAirtimeBudget;
  std::size_t round_relay_bits_ = 0;
  bool topology_validated_ = false;
};

// Channels of the N-relay topology: relay i (party id
// kSessionRelayId + i, repair party id i + 1) overhears the source on
// source_to_relay[i] and reaches the destination on
// relay_to_destination[i]. The two vectors must be the same length —
// unless `initial_broadcast` is set, in which case source_to_relay may
// be left empty: the broadcast carries the only source -> relay
// traffic (relays never ingest repair), and source_to_destination
// carries the source's post-initial repair frames.
struct MultiRelayExchangeChannels {
  BodyChannel source_to_destination;
  std::vector<BodyChannel> source_to_relay;
  std::vector<BodyChannel> relay_to_destination;
  // Shared-medium initial delivery: one transmission, one reception
  // per listener in session order (destination first, then relays).
  BroadcastBodyChannel initial_broadcast;
};

// Party ids the exchange runners assign (indexes into
// SessionRunStats::parties); relays follow contiguously from
// kSessionRelayId.
inline constexpr PartyId kSessionSourceId = 0;
inline constexpr PartyId kSessionDestinationId = 1;
inline constexpr PartyId kSessionRelayId = 2;

// Runs one packet through a source + N relays + destination session
// under `strategy`: relay i comes from MakeRelayParticipant(i + 1),
// which must be on the strategy's roster, and
// `config.relay_airtime_budget_bits` becomes the session's per-round
// relay budget. Every relay overhears the initial transmission on its
// own channel and answers the destination's broadcast feedback,
// scheduled by the engine. N = 0 is the two-party exchange, N = 1 the
// canonical three-party (Crelay) topology.
SessionRunStats RunMultiRelayRecoveryExchange(
    const BitVec& payload_bits, const PpArqConfig& config,
    const RecoveryStrategy& strategy,
    const MultiRelayExchangeChannels& channels, std::size_t max_rounds = 32);

// The zero-relay RunMultiRelayRecoveryExchange: one packet through the
// two-party (source + destination) session under `strategy`, over one
// channel. RunPpArqExchange (arq/link_sim.h) reports this run's totals.
SessionRunStats RunRecoveryExchangeSession(const BitVec& payload_bits,
                                           const PpArqConfig& config,
                                           const RecoveryStrategy& strategy,
                                           const BodyChannel& channel,
                                           std::size_t max_rounds = 32);

}  // namespace ppr::arq
