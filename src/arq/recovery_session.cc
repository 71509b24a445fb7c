#include "arq/recovery_session.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace ppr::arq {

RecoverySession::RecoverySession(SessionConfig config) {
  for (auto& edge : config.edges) {
    if (edge.from == edge.to) {
      throw std::invalid_argument("RecoverySession: bad edge");
    }
    edges_[{edge.from, edge.to}] = std::move(edge.channel);
  }
  if (config.initial_broadcast.has_value()) {
    auto& bcast = *config.initial_broadcast;
    if (!bcast.channel) {
      throw std::invalid_argument("RecoverySession: null broadcast channel");
    }
    for (const PartyId id : bcast.listeners) {
      if (id == bcast.from) {
        throw std::invalid_argument("RecoverySession: bad broadcast listener");
      }
    }
    broadcast_from_ = bcast.from;
    broadcast_listeners_ = std::move(bcast.listeners);
    broadcast_channel_ = std::move(bcast.channel);
  }
  relay_airtime_budget_ = config.relay_airtime_budget_bits == 0
                              ? kNoAirtimeBudget
                              : config.relay_airtime_budget_bits;
}

// Config-time edges name parties that did not exist yet; check them
// against the final roster once, when traffic first moves.
void RecoverySession::ValidateTopology() {
  if (topology_validated_) return;
  for (const auto& [edge, channel] : edges_) {
    if (edge.first >= parties_.size() || edge.second >= parties_.size()) {
      throw std::invalid_argument("RecoverySession: edge names unknown party");
    }
  }
  for (const PartyId id : broadcast_listeners_) {
    if (id >= parties_.size()) {
      throw std::invalid_argument(
          "RecoverySession: broadcast listener unknown");
    }
  }
  topology_validated_ = true;
}

PartyId RecoverySession::AddParty(
    std::unique_ptr<RecoveryParticipant> participant) {
  if (!participant) {
    throw std::invalid_argument("RecoverySession: null participant");
  }
  if (participant->role() == PartyRole::kDestination) {
    if (destination_id_ != kBroadcastId) {
      throw std::invalid_argument("RecoverySession: one destination only");
    }
    destination_id_ = parties_.size();
  }
  parties_.push_back(std::move(participant));
  stats_.parties.emplace_back();
  return parties_.size() - 1;
}

void RecoverySession::TransmitInitial(PartyId source, const BitVec& body) {
  ValidateTopology();
  stats_.totals.forward_bits += body.size();
  ++stats_.totals.data_transmissions;
  if (broadcast_channel_ && broadcast_from_ == source) {
    const auto receptions = broadcast_channel_(body);
    if (receptions.size() != broadcast_listeners_.size()) {
      throw std::logic_error(
          "RecoverySession: broadcast reception count != listener count");
    }
    for (std::size_t i = 0; i < receptions.size(); ++i) {
      parties_.at(broadcast_listeners_[i])->IngestInitial(receptions[i]);
    }
    return;
  }
  for (PartyId to = 0; to < parties_.size(); ++to) {
    if (to == source) continue;
    const auto edge = edges_.find({source, to});
    if (edge == edges_.end()) continue;
    parties_[to]->IngestInitial(edge->second(body));
  }
}

void RecoverySession::Account(const SessionMessage& msg) {
  if (msg.type == SessionMessageType::kEquations) return;  // off the air
  PartyTraffic& party = stats_.parties.at(msg.from);
  if (msg.type == SessionMessageType::kFeedback) {
    stats_.totals.feedback_bits += msg.feedback_wire.size();
    party.feedback_bits += msg.feedback_wire.size();
    obs::Count("arq.session.feedback_bits", msg.feedback_wire.size());
    obs::TraceInstant("session.feedback", "arq", [&] {
      return obs::TraceArgs{
          {"bits", static_cast<std::int64_t>(msg.feedback_wire.size())},
          {"from", static_cast<std::int64_t>(msg.from)}};
    });
    return;
  }
  stats_.totals.forward_bits += msg.wire_bits;
  stats_.totals.retransmission_bits.push_back(msg.wire_bits);
  ++stats_.totals.data_transmissions;
  party.repair_bits += msg.wire_bits;
  ++party.repair_messages;
  const bool from_relay = parties_[msg.from]->role() == PartyRole::kRelay;
  if (from_relay) {
    round_relay_bits_ += msg.wire_bits;
  }
  obs::Count("arq.session.repair_messages");
  obs::Count(from_relay ? "arq.session.repair_bits.relay"
                        : "arq.session.repair_bits.source",
             msg.wire_bits);
  obs::TraceInstant("session.repair", "arq", [&] {
    return obs::TraceArgs{
        {"bits", static_cast<std::int64_t>(msg.wire_bits)},
        {"frames", static_cast<std::int64_t>(msg.frames.size())},
        {"from", static_cast<std::int64_t>(msg.from)},
        {"relay", from_relay ? 1 : 0}};
  });
}

// Broadcast delivery order: non-relay parties (source, listener) in id
// order (the source always answers feedback before any relay, as in the
// pre-scheduling engine), then relays ranked ExOR-style — best
// self-reported quality first, ties by id (stable sort over an
// id-ordered list).
std::vector<PartyId> RecoverySession::RecipientOrder(
    const SessionMessage& msg) {
  std::vector<PartyId> order;
  std::vector<std::pair<double, PartyId>> relays;
  for (PartyId to = 0; to < parties_.size(); ++to) {
    if (to == msg.from) continue;
    if (msg.to != kBroadcastId && msg.to != to) continue;
    if (parties_[to]->role() == PartyRole::kRelay) {
      relays.emplace_back(parties_[to]->RepairQuality(), to);
    } else {
      order.push_back(to);
    }
  }
  std::stable_sort(relays.begin(), relays.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (const auto& [quality, id] : relays) order.push_back(id);
  return order;
}

void RecoverySession::Deliver(SessionMessage msg) {
  std::deque<SessionMessage> queue;
  queue.push_back(std::move(msg));
  // A routing hop can only shrink the message set back toward the
  // destination, but guard against a misbehaving participant pair
  // ping-ponging forever within one round.
  std::size_t hops = 0;
  const std::size_t max_hops = 8 * parties_.size() + 8;
  while (!queue.empty()) {
    if (++hops > max_hops) {
      throw std::logic_error("RecoverySession: round did not drain");
    }
    SessionMessage m = std::move(queue.front());
    queue.pop_front();
    if (m.type == SessionMessageType::kEquations && m.to == kBroadcastId) {
      throw std::logic_error("RecoverySession: equations need an addressee");
    }
    Account(m);
    for (const PartyId to : RecipientOrder(m)) {
      const bool budgeted_relay =
          parties_[to]->role() == PartyRole::kRelay &&
          m.type == SessionMessageType::kFeedback &&
          relay_airtime_budget_ != kNoAirtimeBudget;
      DeliveredMessage delivered;
      delivered.type = m.type;
      delivered.from = m.from;
      delivered.to = m.to;
      if (m.type == SessionMessageType::kFeedback) {
        delivered.feedback_wire = m.feedback_wire;
        if (budgeted_relay) {
          delivered.relay_budget_bits = round_budget_left_;
        }
      } else if (m.type == SessionMessageType::kEquations) {
        delivered.equations = std::move(m.equations);  // one addressee
      } else {
        // Repair bits cross this recipient's edge channel; no channel
        // means the hop is simply out of range.
        const auto edge = edges_.find({m.from, to});
        if (edge == edges_.end()) continue;
        delivered.frames.reserve(m.frames.size());
        for (const auto& frame : m.frames) {
          ReceivedRepairFrame rf;
          rf.range = frame.range;
          rf.aux = frame.aux;
          rf.origin = frame.origin;
          rf.coef_mask = frame.coef_mask;
          rf.suspicion = frame.suspicion;
          rf.symbols = edge->second(frame.bits);
          delivered.frames.push_back(std::move(rf));
        }
      }
      auto replies = parties_[to]->HandleMessage(delivered);
      bool relay_sent_repair = false;
      for (auto& reply : replies) {
        if (budgeted_relay && reply.type == SessionMessageType::kRepair) {
          // A budgeted relay's repair spends the round's remaining
          // airtime; later (worse-ranked) relays see what is left.
          relay_sent_repair = true;
          round_budget_left_ -=
              std::min(round_budget_left_, reply.wire_bits);
        }
        reply.from = to;
        queue.push_back(std::move(reply));
      }
      if (budgeted_relay && !relay_sent_repair) {
        ++stats_.relay_deferrals;
        obs::Count("arq.session.relay_deferrals");
        obs::TraceInstant("session.relay_deferral", "arq", [&] {
          return obs::TraceArgs{
              {"budget_left", static_cast<std::int64_t>(round_budget_left_)},
              {"relay", static_cast<std::int64_t>(to)}};
        });
      }
    }
  }
}

bool RecoverySession::RunRound(DestinationParticipant& destination) {
  round_budget_left_ = relay_airtime_budget_;
  round_relay_bits_ = 0;
  // The other parties open first, in id order, so what a listener hands
  // the destination is banked before the destination sizes its
  // feedback.
  for (PartyId id = 0; id < parties_.size(); ++id) {
    if (id == destination_id_) continue;
    for (auto& msg : parties_[id]->StartRound()) {
      msg.from = id;
      Deliver(std::move(msg));
    }
  }
  auto opening = destination.StartRound();
  if (opening.empty()) {
    stats_.totals.success = true;
    obs::Count("arq.session.completed");
    return false;
  }
  ++stats_.rounds;
  obs::Count("arq.session.rounds");
  const std::uint64_t round_start_ns = obs::NowNs();
  for (auto& msg : opening) {
    msg.from = destination_id_;
    Deliver(std::move(msg));
  }
  const std::uint64_t round_ns = obs::NowNs() - round_start_ns;
  obs::ObserveDuration("arq.session.round_ns", round_ns);
  obs::Observe("arq.session.round_relay_bits", round_relay_bits_);
  obs::TraceComplete("session.round", "arq", round_start_ns, round_ns, [&] {
    return obs::TraceArgs{
        {"relay_bits", static_cast<std::int64_t>(round_relay_bits_)},
        {"round", static_cast<std::int64_t>(stats_.rounds)}};
  });
  stats_.max_round_relay_bits =
      std::max(stats_.max_round_relay_bits, round_relay_bits_);
  return true;
}

SessionRunStats RecoverySession::Run(std::size_t max_rounds) {
  if (destination_id_ == kBroadcastId) {
    throw std::logic_error("RecoverySession: no destination party");
  }
  ValidateTopology();
  auto& destination =
      static_cast<DestinationParticipant&>(*parties_[destination_id_]);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (!RunRound(destination)) return stats_;
  }
  stats_.totals.success = destination.Complete();
  obs::Count(stats_.totals.success ? "arq.session.completed"
                                   : "arq.session.failed");
  return stats_;
}

SessionRunStats RunMultiRelayRecoveryExchange(
    const BitVec& payload_bits, const PpArqConfig& config,
    const RecoveryStrategy& strategy,
    const MultiRelayExchangeChannels& channels, std::size_t max_rounds) {
  if (channels.source_to_relay.size() != channels.relay_to_destination.size() &&
      !(channels.initial_broadcast && channels.source_to_relay.empty())) {
    throw std::invalid_argument(
        "RunMultiRelayRecoveryExchange: per-relay channel vectors must "
        "be the same length");
  }
  const std::size_t num_relays = channels.relay_to_destination.size();
  const BitVec body = PpArqSender::MakeBody(payload_bits);
  if (body.size() % config.bits_per_codeword != 0) {
    throw std::invalid_argument(
        "RunMultiRelayRecoveryExchange: body bits must be whole codewords");
  }
  const std::size_t total_codewords = body.size() / config.bits_per_codeword;
  static_assert(kSessionSourceId == 0 && kSessionDestinationId == 1 &&
                kSessionRelayId == 2);
  // Party ids follow AddParty call order deterministically, so the
  // whole topology is expressible up front.
  SessionConfig topology;
  topology.edges.push_back({kSessionSourceId, kSessionDestinationId,
                            channels.source_to_destination});
  for (std::size_t i = 0; i < num_relays; ++i) {
    const PartyId relay_party = kSessionRelayId + i;
    if (i < channels.source_to_relay.size() && channels.source_to_relay[i]) {
      topology.edges.push_back(
          {kSessionSourceId, relay_party, channels.source_to_relay[i]});
    }
    topology.edges.push_back({relay_party, kSessionDestinationId,
                              channels.relay_to_destination[i]});
  }
  if (channels.initial_broadcast) {
    SessionBroadcast bcast;
    bcast.from = kSessionSourceId;
    bcast.listeners.push_back(kSessionDestinationId);
    for (std::size_t i = 0; i < num_relays; ++i) {
      bcast.listeners.push_back(kSessionRelayId + i);
    }
    bcast.channel = channels.initial_broadcast;
    topology.initial_broadcast = std::move(bcast);
  }
  topology.relay_airtime_budget_bits = config.relay_airtime_budget_bits;
  RecoverySession session(std::move(topology));
  const PartyId source =
      session.AddParty(strategy.MakeSourceParticipant(body, /*seq=*/1));
  session.AddParty(
      strategy.MakeDestinationParticipant(/*seq=*/1, total_codewords));
  for (std::size_t i = 0; i < num_relays; ++i) {
    auto relay = strategy.MakeRelayParticipant(
        static_cast<std::uint8_t>(i + 1), /*seq=*/1, total_codewords);
    if (!relay) {
      throw std::invalid_argument(
          "RunMultiRelayRecoveryExchange: the strategy's relay roster "
          "does not cover the channels");
    }
    session.AddParty(std::move(relay));
  }
  session.TransmitInitial(source, body);
  return session.Run(max_rounds);
}

SessionRunStats RunRecoveryExchangeSession(const BitVec& payload_bits,
                                           const PpArqConfig& config,
                                           const RecoveryStrategy& strategy,
                                           const BodyChannel& channel,
                                           std::size_t max_rounds) {
  MultiRelayExchangeChannels channels;
  channels.source_to_destination = channel;
  return RunMultiRelayRecoveryExchange(payload_bits, config, strategy,
                                       channels, max_rounds);
}

}  // namespace ppr::arq
