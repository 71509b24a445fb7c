#include "arq/recovery_strategy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "arq/adaptive_burst.h"
#include "arq/feedback.h"
#include "arq/recovery_session.h"
#include "common/crc.h"
#include "fec/coded_repair.h"
#include "fec/rlnc.h"

namespace ppr::arq {
namespace {

constexpr unsigned kSeqBits = 16;
constexpr unsigned kPartyCountBits = 8;
constexpr unsigned kCountBits = 16;
constexpr unsigned kSeedBits = 32;
// Reliable per-frame descriptor overhead a relay pays beyond the seed:
// origin id and a quantized suspicion score (the coefficient mask adds
// one further bit per FEC source symbol).
constexpr unsigned kOriginBits = 8;
constexpr unsigned kSuspicionBits = 16;
// The coded destination sizes its bursts (arq/adaptive_burst.h) for
// this per-round completion probability, starting from a delivery
// rate prior of 1 / (1 + kRepairPriorOverhead) for every repair party.
constexpr double kRepairPriorOverhead = 0.25;
constexpr double kRepairTargetCompletion = 0.9;

// Burst requests are bounded so a floor-clamped delivery estimate
// cannot ask for unbounded streams; both ends compute the same cap so
// requested always equals sent.
std::size_t MaxRepairBurst(std::size_t num_source) {
  return std::min<std::size_t>(0xFFFF, 4 * num_source);
}

// Per-FEC-symbol labelling of a coded party's body image: good[s] iff
// every codeword in symbol s clears the eta threshold; suspicion[s] is
// the symbol's worst hint.
struct FecSymbolLabels {
  std::vector<bool> good;
  std::vector<double> suspicion;
};
FecSymbolLabels LabelFecSymbols(const SoftPhyBody& body,
                                std::size_t codewords_per_symbol, double eta) {
  const std::size_t n =
      (body.hints.size() + codewords_per_symbol - 1) / codewords_per_symbol;
  FecSymbolLabels out;
  out.good.assign(n, true);
  out.suspicion.assign(n, 0.0);
  for (std::size_t cw = 0; cw < body.hints.size(); ++cw) {
    const std::size_t s = cw / codewords_per_symbol;
    if (body.hints[cw] > eta) out.good[s] = false;
    out.suspicion[s] = std::max(out.suspicion[s], body.hints[cw]);
  }
  return out;
}

// The one repair message a source sends in answer to `feedback`,
// before its frames and airtime are filled in.
SessionMessage RepairReplyTo(const DeliveredMessage& feedback) {
  SessionMessage reply;
  reply.type = SessionMessageType::kRepair;
  reply.to = feedback.from;
  return reply;
}

// A destination's round opener: its feedback, broadcast to every party.
std::vector<SessionMessage> BroadcastFeedback(BitVec wire) {
  SessionMessage fb;
  fb.type = SessionMessageType::kFeedback;
  fb.to = kBroadcastId;
  fb.wire_bits = wire.size();
  fb.feedback_wire = std::move(wire);
  return {std::move(fb)};
}

// ------------------------------------------------------------------ chunk

class ChunkRetransmitSource : public RecoveryParticipant {
 public:
  ChunkRetransmitSource(const BitVec& body, std::uint16_t seq,
                        const PpArqConfig& config)
      : config_(config), sender_(body, seq, config) {}

  PartyRole role() const override { return PartyRole::kSource; }

  // The source owns the original bits; its own transmission carries no
  // information for it.
  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}

  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type != SessionMessageType::kFeedback) return {};
    const auto decoded =
        DecodeFeedback(msg.feedback_wire, sender_.total_codewords(),
                       config_.bits_per_codeword, config_.checksum_bits);
    if (!decoded.has_value()) {
      throw std::logic_error("feedback round-trip failed");
    }
    const RetransmissionPacket retx = sender_.HandleFeedback(*decoded);
    SessionMessage reply = RepairReplyTo(msg);
    reply.wire_bits =
        EncodeRetransmission(retx, sender_.total_codewords(),
                             config_.bits_per_codeword)
            .size();
    reply.frames.reserve(retx.segments.size());
    for (const auto& seg : retx.segments) {
      reply.frames.push_back(RepairFrame{seg.range, 0, seg.bits});
    }
    return {std::move(reply)};
  }

 private:
  PpArqConfig config_;
  PpArqSender sender_;
};

class ChunkRetransmitReceiver : public DestinationParticipant {
 public:
  ChunkRetransmitReceiver(std::uint16_t seq, std::size_t total_codewords,
                          const PpArqConfig& config)
      : receiver_(seq, total_codewords, config) {}

  void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols) override {
    receiver_.IngestInitial(symbols);
  }

  std::vector<SessionMessage> StartRound() override {
    const auto fb = receiver_.BuildFeedback();
    if (!fb.has_value()) return {};
    return BroadcastFeedback(receiver_.EncodeFeedbackWire(*fb));
  }

  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type != SessionMessageType::kRepair) return {};
    std::vector<ReceivedSegment> segments;
    segments.reserve(msg.frames.size());
    for (const auto& f : msg.frames) {
      segments.push_back(ReceivedSegment{f.range, f.symbols});
    }
    receiver_.IngestRetransmission(segments);
    return {};
  }

  bool Complete() const override { return receiver_.Complete(); }

  BitVec AssembledPayload() const override {
    return receiver_.AssembledPayload();
  }

 private:
  PpArqReceiver receiver_;
};

class ChunkRetransmitStrategy : public RecoveryStrategy {
 public:
  explicit ChunkRetransmitStrategy(const PpArqConfig& config)
      : config_(config) {}

  std::unique_ptr<RecoveryParticipant> MakeSourceParticipant(
      const BitVec& body_bits, std::uint16_t seq) const override {
    return std::make_unique<ChunkRetransmitSource>(body_bits, seq, config_);
  }

  std::unique_ptr<DestinationParticipant> MakeDestinationParticipant(
      std::uint16_t seq, std::size_t total_codewords) const override {
    return std::make_unique<ChunkRetransmitReceiver>(seq, total_codewords,
                                                     config_);
  }

 private:
  PpArqConfig config_;
};

// ------------------------------------------------------------------ coded

// Batches `count` [data || CRC-32] records into body-sized frames.
// `make_record` is called once per record, in order; it receives the
// frame pointer on each frame's FIRST record to fill the descriptor
// (base seed etc. — record k of a frame is expected to use the
// counter-consecutive seed base + k). A frame costs one reliable
// descriptor however many records it carries, and a partial collision
// costs only the records it actually hits. No frame exceeds the
// original body size — carriers that bound frame length (e.g. the
// waveform pipeline's max_payload_octets) must keep accepting repair
// frames whenever they accepted the initial transmission.
// [data || CRC-32] record size and frame capacity shared by the
// batcher below and every wire-cost computation priced against it.
std::size_t RepairRecordBits(std::size_t record_payload_bits) {
  return record_payload_bits + 32;
}
std::size_t RepairRecordsPerFrame(std::size_t record_payload_bits,
                                  std::size_t body_bits) {
  return std::max<std::size_t>(1,
                               body_bits / RepairRecordBits(record_payload_bits));
}

// Wire cost of a `count`-record burst as BatchRepairRecords will pack
// it: the records themselves plus one reliable `descriptor_bits`
// descriptor per frame.
std::size_t BatchedBurstWireBits(std::size_t count,
                                 std::size_t record_payload_bits,
                                 std::size_t body_bits,
                                 std::size_t descriptor_bits) {
  const std::size_t per_frame =
      RepairRecordsPerFrame(record_payload_bits, body_bits);
  return count * RepairRecordBits(record_payload_bits) +
         (count + per_frame - 1) / per_frame * descriptor_bits;
}

template <typename MakeRecord>
std::vector<RepairFrame> BatchRepairRecords(std::size_t count,
                                            std::size_t record_payload_bits,
                                            std::size_t body_bits,
                                            std::size_t bits_per_codeword,
                                            const MakeRecord& make_record) {
  const std::size_t per_frame =
      RepairRecordsPerFrame(record_payload_bits, body_bits);
  std::vector<RepairFrame> frames;
  for (std::size_t done = 0; done < count;) {
    const std::size_t batch = std::min(per_frame, count - done);
    RepairFrame frame;
    for (std::size_t k = 0; k < batch; ++k) {
      const BitVec data = make_record(k == 0 ? &frame : nullptr);
      frame.bits.AppendBits(data);
      frame.bits.AppendUint(Crc32Bits(data), 32);
    }
    frame.range = CodewordRange{0, frame.bits.size() / bits_per_codeword};
    frames.push_back(std::move(frame));
    done += batch;
  }
  return frames;
}

class CodedRepairSource : public RecoveryParticipant {
 public:
  CodedRepairSource(const BitVec& body, std::uint16_t seq,
                    const PpArqConfig& config)
      : config_(config),
        seq_(seq),
        body_bits_(body.size()),
        encoder_(fec::BodyToSymbols(body, config.bits_per_codeword,
                                    config.codewords_per_fec_symbol)) {}

  PartyRole role() const override { return PartyRole::kSource; }

  // The source owns the original bits; its own transmission carries no
  // information for it.
  void IngestInitial(const std::vector<phy::DecodedSymbol>&) override {}

  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type != SessionMessageType::kFeedback) return {};
    const auto fb = DecodeCodedFeedbackWire(msg.feedback_wire);
    if (!fb.has_value()) {
      throw std::logic_error("coded feedback round-trip failed");
    }
    SessionMessage reply = RepairReplyTo(msg);
    reply.wire_bits = kSeqBits + kCountBits;
    // The source is always party 0 of the wire, however many relay
    // counts follow.
    const std::size_t requested = fb->requested.front();
    if (fb->seq != seq_ || requested == 0) return {std::move(reply)};
    // The receiver sizes its own burst (arq/adaptive_burst.h); the
    // sender obeys, bounded by the shared cap.
    const std::size_t count =
        std::min(requested, MaxRepairBurst(encoder_.num_source()));
    reply.frames = BatchRepairRecords(
        count, encoder_.symbol_bytes() * 8, body_bits_,
        config_.bits_per_codeword, [&](RepairFrame* frame) {
          if (frame) frame->aux = next_seed_;
          const fec::RepairSymbol repair = encoder_.MakeRepair(next_seed_);
          ++next_seed_;
          return BitVec::FromBytes(repair.data);
        });
    for (const auto& frame : reply.frames) {
      reply.wire_bits += kSeedBits + frame.bits.size();
    }
    return {std::move(reply)};
  }

 private:
  PpArqConfig config_;
  std::uint16_t seq_;
  std::size_t body_bits_;
  fec::RlncEncoder encoder_;
  std::uint32_t next_seed_ = 1;
};

// The coded destination: S-PRAC between two parties, Crelay with
// overhearing relays. It assembles the SoftPHY-labelled body of the
// initial transmission, bridges it into fec::CodedRepairSession, parses
// repair records, decodes, verifies and evicts, and banks the
// kEquations rows a collision listener hands over.
//
// Each round it splits the deficit across the source and its relays in
// proportion to their observed repair-symbol delivery rates ("who is
// cheaper to hear"), then sizes each share for the target completion
// probability at that party's own rate. Relay shares are floored, so
// the source always absorbs the rounding remainder and gets at least
// one symbol of any nonzero deficit: its equations are correct by
// construction, so progress is guaranteed even against relays that
// stream only poison. With no relays the source's share is the whole
// deficit and the wire carries its one count.
class CodedDestination : public DestinationParticipant {
 public:
  CodedDestination(std::uint16_t seq, std::size_t total_codewords,
                   std::size_t relays, const PpArqConfig& config)
      : config_(config),
        seq_(seq),
        body_(total_codewords, config.bits_per_codeword),
        estimators_(1 + relays, RepairDeliveryEstimator(
                                    1.0 / (1.0 + kRepairPriorOverhead))) {}

  void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols) override {
    body_.Merge(symbols);
  }

  bool Complete() const override { return decoded_ok_ || body_.Complete(); }

  std::vector<SessionMessage> StartRound() override {
    if (Complete()) return {};
    EnsureSession();
    // A decodable-but-wrong basis (pure SoftPHY miss, no erasures) is
    // resolved here: TryFinish evicts suspects, growing the deficit.
    TryFinish();
    if (Complete()) return {};
    return BroadcastFeedback(BuildRequestWire());
  }

  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type == SessionMessageType::kEquations) {
      BankEquations(msg.equations);
      return {};
    }
    if (msg.type != SessionMessageType::kRepair) return {};
    if (!session_.has_value() || decoded_ok_) return {};
    for (const auto& f : msg.frames) IngestRepairFrame(f);
    TryFinish();
    return {};
  }

  BitVec AssembledPayload() const override { return body_.Payload(); }

  std::size_t EquationRank() const override { return equation_rank_; }

 private:
  std::size_t NumSourceSymbols() const {
    const std::size_t cps = config_.codewords_per_fec_symbol;
    return (body_.hints.size() + cps - 1) / cps;
  }

  // The feedback wire, built while incomplete (the session exists and
  // its deficit is current): one requested count per repair party.
  BitVec BuildRequestWire() {
    const std::size_t deficit = session_->Deficit();
    const std::size_t parties = estimators_.size();
    std::vector<double> rate(parties);
    double rate_sum = 0.0;
    for (std::size_t i = 0; i < parties; ++i) {
      rate[i] = estimators_[i].DeliveryRate();
      rate_sum += rate[i];
    }
    // Delivery-rate-weighted shares. The relay BLOC's share is floored
    // as a whole (largest-remainder within it), so per-relay rounding
    // cannot starve the bloc at small deficits; the source takes the
    // remainder, which keeps it >= 1 for any nonzero deficit (its rate
    // is positive, so the bloc's fraction is strictly below deficit) —
    // the correctness backstop against all-poison relays. With one
    // relay this is exactly the original two-way split.
    std::vector<std::size_t> share(parties, 0);
    const double relay_rate_sum = rate_sum - rate[0];
    const std::size_t relay_total =
        parties > 1 ? static_cast<std::size_t>(std::floor(
                          static_cast<double>(deficit) * relay_rate_sum /
                          rate_sum))
                    : 0;
    share[0] = deficit - relay_total;
    // Endgame escape: integer flooring hands a small deficit entirely
    // to the source, which livelocks when the direct path is dead (the
    // source estimator pinned at its floor) however healthy the relays
    // are. Ask the best relay for the deficit too — duplication costs
    // a symbol or two, only in this pathological state.
    if (relay_total == 0 && deficit > 0 && parties > 1 &&
        rate[0] <= RepairDeliveryEstimator::kFloor) {
      std::size_t best = 1;
      for (std::size_t i = 2; i < parties; ++i) {
        if (rate[i] > rate[best]) best = i;
      }
      share[best] = deficit;
    }
    if (relay_total > 0) {
      struct Remainder {
        double frac;
        std::size_t party;
      };
      std::vector<Remainder> remainders;
      std::size_t allotted = 0;
      for (std::size_t i = 1; i < parties; ++i) {
        const double quota =
            static_cast<double>(relay_total) * rate[i] / relay_rate_sum;
        share[i] = static_cast<std::size_t>(std::floor(quota));
        allotted += share[i];
        remainders.push_back({quota - std::floor(quota), i});
      }
      std::stable_sort(remainders.begin(), remainders.end(),
                       [](const Remainder& a, const Remainder& b) {
                         return a.frac > b.frac;
                       });
      for (std::size_t k = 0; allotted < relay_total; ++k, ++allotted) {
        ++share[remainders[k].party];
      }
    }
    const std::size_t cap = MaxRepairBurst(NumSourceSymbols());
    CodedFeedbackWire fb;
    fb.seq = seq_;
    fb.requested.reserve(parties);
    for (std::size_t i = 0; i < parties; ++i) {
      const std::size_t n =
          BurstSizeForTarget(share[i], rate[i], kRepairTargetCompletion, cap);
      estimators_[i].OnRequested(n);
      fb.requested.push_back(n);
    }
    return EncodeCodedFeedbackWire(fb);
  }

  void IngestRepairFrame(const ReceivedRepairFrame& f) {
    if (f.origin >= estimators_.size()) return;  // not on the roster
    if (f.origin == 0) {
      // The source's frames: every CRC-valid record is a trusted repair
      // symbol with seed aux + k (the source's plain-counter partition).
      estimators_[0].OnDelivered(ForEachValidRecord(
          f, [&](std::size_t k, const BitVec& data) {
            session_->ConsumeRepair(fec::RepairSymbol{
                f.aux + static_cast<std::uint32_t>(k), data.ToBytes()});
          }));
      return;
    }
    // A relay equation spans only the symbols its mask names; its
    // correctness rests on the relay's own SoftPHY labelling, so it is
    // banked evictable under the relay-reported suspicion, with the
    // relay id as provenance so a poisoned relay's stream is evicted
    // as a group.
    if (f.coef_mask.size() != NumSourceSymbols()) return;
    std::vector<bool> have(f.coef_mask.size());
    for (std::size_t i = 0; i < have.size(); ++i) have[i] = f.coef_mask.Get(i);
    estimators_[f.origin].OnDelivered(ForEachValidRecord(
        f, [&](std::size_t k, const BitVec& data) {
          // Record k's seed is counter-consecutive with the frame's base
          // seed INSIDE the origin's 24-bit partition (fec::PartySeed),
          // so the reconstruction wraps exactly as the relay's counter
          // did.
          const std::uint32_t seed = fec::PartySeed(
              f.origin,
              fec::SeedCounter(f.aux) + static_cast<std::uint32_t>(k));
          session_->ConsumeEquation(fec::MaskedCoefficients(seed, have),
                                    data.ToBytes(), f.suspicion,
                                    /*evictable=*/true, /*party=*/f.origin);
        }));
  }

  // Walks the [data || CRC-32] records of one frame, invoking
  // `on_record(k, data)` for each record whose CRC verifies; corrupted
  // records are dropped individually. Returns the number of valid
  // records.
  template <typename OnRecord>
  std::size_t ForEachValidRecord(const ReceivedRepairFrame& f,
                                 const OnRecord& on_record) {
    const std::size_t payload_bits = session_->symbol_bytes() * 8;
    const std::size_t record_bits = payload_bits + 32;
    BitVec rb;
    for (const auto& s : f.symbols) {
      rb.AppendUint(s.symbol, static_cast<unsigned>(config_.bits_per_codeword));
    }
    const std::size_t count = rb.size() / record_bits;
    std::size_t valid = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const BitVec data = rb.Slice(k * record_bits, payload_bits);
      const auto crc = static_cast<std::uint32_t>(
          rb.ReadUint(k * record_bits + payload_bits, 32));
      if (Crc32Bits(data) != crc) continue;
      ++valid;
      on_record(k, data);
    }
    return valid;
  }

  void EnsureSession() {
    if (session_.has_value()) return;
    const std::size_t cps = config_.codewords_per_fec_symbol;
    auto symbols =
        fec::BodyToSymbols(body_.bits, config_.bits_per_codeword, cps);
    auto labels = LabelFecSymbols(body_, cps, config_.eta);
    session_.emplace(std::move(symbols), std::move(labels.good),
                     std::move(labels.suspicion));
  }

  void TryFinish() {
    if (!session_.has_value() || decoded_ok_) return;
    while (session_->CanDecode()) {
      const BitVec decoded =
          fec::SymbolsToBody(session_->Decode(), body_.bits.size());
      if (SoftPhyBody::CrcOk(decoded)) {
        body_.bits = decoded;
        decoded_ok_ = true;
        return;
      }
      // Wrong basis: a confident-but-wrong row (the receiver's own
      // SoftPHY miss, or a relay equation built from one). Distrust the
      // most suspect rows and keep consuming rank.
      if (session_->EvictSuspects() == 0) return;
    }
  }

  // Rows a collision listener distilled from collided receptions,
  // banked as they arrive (the listener opens the first round, before
  // this destination's feedback) and evictable as a group under the
  // collision provenance tag. Rows whose widths do not match the FEC
  // block are skipped; the rank gained is the drop in deficit.
  void BankEquations(const std::vector<collide::CollisionEquation>& equations) {
    EnsureSession();
    const std::size_t before = session_->Deficit();
    for (const auto& eq : equations) {
      if (eq.coefs.size() != NumSourceSymbols()) continue;
      if (eq.data.size() != session_->symbol_bytes()) continue;
      session_->ConsumeEquation(eq.coefs, eq.data, eq.suspicion,
                                /*evictable=*/true,
                                /*party=*/fec::kCollisionResolvedParty);
    }
    equation_rank_ += before - session_->Deficit();
    TryFinish();
  }

  PpArqConfig config_;
  std::uint16_t seq_;
  SoftPhyBody body_;
  std::optional<fec::CodedRepairSession> session_;
  bool decoded_ok_ = false;
  std::size_t equation_rank_ = 0;
  std::vector<RepairDeliveryEstimator> estimators_;  // index = party id
};

// The overhearing relay: assembles its own (partial, possibly
// miss-corrupted) copy of the initial transmission, and answers the
// destination's broadcast feedback with masked RLNC equations over the
// symbols it trusts, seeded from its own partition of the seed space.
// When the session engine hands it a finite airtime budget it
// truncates its burst to fit and defers entirely once the round's
// budget is spent (ExOR-style: better-ranked relays were served
// first).
class RelayRepairParticipant : public RecoveryParticipant {
 public:
  RelayRepairParticipant(std::uint8_t relay_id, std::uint16_t seq,
                         std::size_t total_codewords,
                         const PpArqConfig& config)
      : config_(config),
        relay_id_(relay_id),
        seq_(seq),
        body_(total_codewords, config.bits_per_codeword) {}

  PartyRole role() const override { return PartyRole::kRelay; }

  void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols) override {
    body_.Merge(symbols);
  }

  // Observed bottleneck quality: the fraction of FEC symbols this relay
  // trusts from its overheard copy. The session engine services relays
  // in descending order of this rank when a round's airtime is
  // budgeted.
  double RepairQuality() override {
    if (!body_.received) return 0.0;
    EnsureLabeled();
    if (have_.empty()) return 0.0;
    return static_cast<double>(num_trusted_) /
           static_cast<double>(have_.size());
  }

  std::vector<SessionMessage> HandleMessage(
      const DeliveredMessage& msg) override {
    if (msg.type != SessionMessageType::kFeedback || !body_.received) {
      return {};
    }
    const auto fb = DecodeCodedFeedbackWire(msg.feedback_wire);
    if (!fb.has_value() || fb->seq != seq_) return {};
    // This relay's requested count travels at index relay_id; a wire
    // with a shorter roster asks nothing of it.
    const std::size_t requested =
        relay_id_ < fb->requested.size() ? fb->requested[relay_id_] : 0;
    if (requested == 0) return {};
    EnsureLabeled();
    if (num_trusted_ == 0) return {};  // nothing usable overheard

    std::size_t count = std::min(requested, MaxRepairBurst(symbols_.size()));
    // Fit the burst to the round's remaining relay airtime: shed
    // records until the wire cost (records plus one reliable
    // descriptor per frame) is affordable, deferring outright when
    // nothing is. Skipped seeds are harmless — every frame names its
    // base seed explicitly.
    const std::size_t payload_bits = symbols_.front().size() * 8;
    const std::size_t descriptor_bits =
        kSeedBits + kOriginBits + kSuspicionBits + have_.size();
    const auto burst_cost = [&](std::size_t records) {
      return BatchedBurstWireBits(records, payload_bits, body_.bits.size(),
                                  descriptor_bits);
    };
    while (count > 0 && burst_cost(count) > msg.relay_budget_bits) --count;
    if (count == 0) return {};  // round budget spent: defer

    SessionMessage reply = RepairReplyTo(msg);
    BitVec mask;
    for (const bool h : have_) mask.PushBack(h);
    reply.frames = BatchRepairRecords(
        count, payload_bits, body_.bits.size(),
        config_.bits_per_codeword, [&](RepairFrame* frame) {
          const std::uint32_t seed = fec::PartySeed(relay_id_, counter_++);
          if (frame) {
            frame->aux = seed;
            frame->origin = relay_id_;
            frame->coef_mask = mask;
            frame->suspicion = suspicion_;
          }
          const fec::RepairSymbol repair =
              fec::MakeMaskedRepair(symbols_, have_, seed);
          return BitVec::FromBytes(repair.data);
        });
    reply.wire_bits = 0;
    for (const auto& frame : reply.frames) {
      reply.wire_bits += kSeedBits + kOriginBits + kSuspicionBits +
                         frame.coef_mask.size() + frame.bits.size();
    }
    // The budget fit above priced the burst before building it; if
    // BatchRepairRecords' packing ever diverges from burst_cost, the
    // budget the engine charges would drift from the bits on the air.
    assert(reply.wire_bits == burst_cost(count));
    return {std::move(reply)};
  }

 private:
  // Splits the overheard body into FEC symbols and labels each trusted
  // when every codeword clears the SoftPHY threshold; the reported
  // suspicion is the worst hint across the trusted span.
  void EnsureLabeled() {
    if (!symbols_.empty()) return;
    const std::size_t cps = config_.codewords_per_fec_symbol;
    symbols_ = fec::BodyToSymbols(body_.bits, config_.bits_per_codeword, cps);
    const auto labels = LabelFecSymbols(body_, cps, config_.eta);
    have_ = labels.good;
    for (std::size_t s = 0; s < have_.size(); ++s) {
      if (!have_[s]) continue;
      ++num_trusted_;
      suspicion_ = std::max(suspicion_, labels.suspicion[s]);
    }
  }

  PpArqConfig config_;
  std::uint8_t relay_id_;
  std::uint16_t seq_;
  SoftPhyBody body_;
  std::vector<std::vector<std::uint8_t>> symbols_;
  std::vector<bool> have_;
  double suspicion_ = 0.0;
  std::size_t num_trusted_ = 0;
  std::uint32_t counter_ = 1;
};

// ------------------------------------------------------------------ strategy

// Every coded mode: the coded source, the coded destination, and one
// overhearing relay per slot of the roster. The roster is
// config.relay_parties under kRelayCodedRepair and empty under
// kCodedRepair and kCollisionResolve; the source is the same either
// way, party 0 of the wire, its seed counter party 0's partition.
class CodedStrategy : public RecoveryStrategy {
 public:
  CodedStrategy(const PpArqConfig& config, std::size_t relays)
      : config_(config), relays_(relays) {
    const std::size_t symbol_bits =
        config.bits_per_codeword * config.codewords_per_fec_symbol;
    if (symbol_bits == 0 || symbol_bits % 8 != 0) {
      throw std::invalid_argument(
          "CodedStrategy: FEC symbol must be whole octets");
    }
    // Party ids must fit the 8-bit wire origin field and the party
    // count (source + relays) the 8-bit wire roster field.
    if (relays >= fec::kMaxRepairParties - 1) {
      throw std::invalid_argument(
          "CodedStrategy: relay_parties must be at most 254");
    }
  }

  std::unique_ptr<RecoveryParticipant> MakeSourceParticipant(
      const BitVec& body_bits, std::uint16_t seq) const override {
    return std::make_unique<CodedRepairSource>(body_bits, seq, config_);
  }

  std::unique_ptr<DestinationParticipant> MakeDestinationParticipant(
      std::uint16_t seq, std::size_t total_codewords) const override {
    return std::make_unique<CodedDestination>(seq, total_codewords, relays_,
                                              config_);
  }

  std::unique_ptr<RecoveryParticipant> MakeRelayParticipant(
      std::uint8_t relay_id, std::uint16_t seq,
      std::size_t total_codewords) const override {
    if (relay_id == 0 || relay_id > relays_) return nullptr;
    return std::make_unique<RelayRepairParticipant>(relay_id, seq,
                                                    total_codewords, config_);
  }

 private:
  PpArqConfig config_;
  std::size_t relays_;
};

}  // namespace

BitVec EncodeCodedFeedbackWire(const CodedFeedbackWire& feedback) {
  if (feedback.requested.empty() ||
      feedback.requested.size() >= fec::kMaxRepairParties) {
    throw std::invalid_argument(
        "EncodeCodedFeedbackWire: party count must be in [1, 255]");
  }
  BitVec wire;
  wire.AppendUint(feedback.seq, kSeqBits);
  wire.AppendUint(feedback.requested.size(), kPartyCountBits);
  for (const std::size_t n : feedback.requested) {
    if (n > 0xFFFF) {
      throw std::invalid_argument(
          "EncodeCodedFeedbackWire: requested count exceeds 16 bits");
    }
    wire.AppendUint(n, kCountBits);
  }
  return wire;
}

std::optional<CodedFeedbackWire> DecodeCodedFeedbackWire(const BitVec& wire) {
  if (wire.size() < kSeqBits + kPartyCountBits) return std::nullopt;
  CodedFeedbackWire out;
  out.seq = static_cast<std::uint16_t>(wire.ReadUint(0, kSeqBits));
  const std::size_t parties = wire.ReadUint(kSeqBits, kPartyCountBits);
  if (parties == 0) return std::nullopt;
  if (wire.size() < kSeqBits + kPartyCountBits + parties * kCountBits) {
    return std::nullopt;  // truncated roster
  }
  out.requested.reserve(parties);
  for (std::size_t i = 0; i < parties; ++i) {
    out.requested.push_back(
        wire.ReadUint(kSeqBits + kPartyCountBits + i * kCountBits,
                      kCountBits));
  }
  return out;
}

std::unique_ptr<RecoveryParticipant> RecoveryStrategy::MakeRelayParticipant(
    std::uint8_t, std::uint16_t, std::size_t) const {
  return nullptr;  // this strategy has no relay role
}

std::unique_ptr<RecoveryStrategy> MakeRecoveryStrategy(
    const PpArqConfig& config) {
  switch (config.recovery) {
    case RecoveryMode::kChunkRetransmit:
      return std::make_unique<ChunkRetransmitStrategy>(config);
    case RecoveryMode::kCodedRepair:
    case RecoveryMode::kCollisionResolve:
      return std::make_unique<CodedStrategy>(config, 0);
    case RecoveryMode::kRelayCodedRepair:
      return std::make_unique<CodedStrategy>(config, config.relay_parties);
  }
  throw std::logic_error("MakeRecoveryStrategy: unknown mode");
}

}  // namespace ppr::arq
