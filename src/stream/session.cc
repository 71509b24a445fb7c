#include "stream/session.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/crc.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "stream/delivery_queue.h"
#include "stream/window.h"

namespace ppr::stream {

namespace {

// ------------------------------------------------------------ wire codec
//
// Forward frames, MSB-first fields, CRC-32 over everything before it,
// zero-padded to a whole number of 4-bit codewords:
//
//   source:  type=0 (2) | wire_id (16)            | payload | crc32
//   repair:  type=1 (2) | first_id (16) | span (16) | seed (32) | payload | crc32

constexpr unsigned kTypeBits = 2;
constexpr unsigned kTypeSource = 0;
constexpr unsigned kTypeRepair = 1;
constexpr unsigned kCrcBits = 32;
// Feedback wire cost charged per StreamAck: truncated cumulative ack +
// deficit + loss estimate (8-bit fixed point) + crc.
constexpr std::size_t kFeedbackBits = kWireIdBits + 16 + 8 + kCrcBits;

BitVec FinishFrame(BitVec frame) {
  frame.AppendUint(Crc32Bits(frame), kCrcBits);
  while (frame.size() % 4 != 0) frame.PushBack(false);
  return frame;
}

BitVec EncodeSourceFrame(SymbolId id, const std::vector<std::uint8_t>& data) {
  BitVec frame;
  frame.AppendUint(kTypeSource, kTypeBits);
  frame.AppendUint(TruncateSymbolId(id), kWireIdBits);
  frame.AppendBits(BitVec::FromBytes(data));
  return FinishFrame(std::move(frame));
}

BitVec EncodeRepairFrame(const StreamRepairSymbol& repair) {
  BitVec frame;
  frame.AppendUint(kTypeRepair, kTypeBits);
  frame.AppendUint(TruncateSymbolId(repair.first_id), kWireIdBits);
  frame.AppendUint(repair.span, 16);
  frame.AppendUint(repair.seed, 32);
  frame.AppendBits(BitVec::FromBytes(repair.data));
  return FinishFrame(std::move(frame));
}

struct ParsedFrame {
  bool valid = false;  // well-formed and CRC verified
  unsigned type = 0;
  std::uint16_t wire_id = 0;
  std::uint16_t span = 0;
  std::uint32_t seed = 0;
  std::vector<std::uint8_t> payload;
};

ParsedFrame ParseFrame(const BitVec& bits, std::size_t symbol_bytes) {
  ParsedFrame out;
  const std::size_t payload_bits = symbol_bytes * 8;
  if (bits.size() < kTypeBits + kWireIdBits + payload_bits + kCrcBits) {
    return out;
  }
  out.type = static_cast<unsigned>(bits.ReadUint(0, kTypeBits));
  if (out.type != kTypeSource && out.type != kTypeRepair) return out;
  const std::size_t header_bits =
      out.type == kTypeRepair ? kTypeBits + kWireIdBits + 16 + 32
                              : kTypeBits + kWireIdBits;
  const std::size_t body_bits = header_bits + payload_bits;
  if (bits.size() < body_bits + kCrcBits) return out;
  const auto stored_crc =
      static_cast<std::uint32_t>(bits.ReadUint(body_bits, kCrcBits));
  if (Crc32Bits(bits.Slice(0, body_bits)) != stored_crc) return out;
  out.wire_id = static_cast<std::uint16_t>(bits.ReadUint(kTypeBits,
                                                         kWireIdBits));
  if (out.type == kTypeRepair) {
    out.span = static_cast<std::uint16_t>(
        bits.ReadUint(kTypeBits + kWireIdBits, 16));
    out.seed = static_cast<std::uint32_t>(
        bits.ReadUint(kTypeBits + kWireIdBits + 16, 32));
    if (out.span == 0) return out;  // a repair spans at least one symbol
  }
  const BitVec payload = bits.Slice(header_bits, payload_bits);
  out.payload = payload.ToBytes();
  out.valid = true;
  return out;
}

// ------------------------------------------------------------- event loop

enum class EventType : std::uint8_t {
  kSourcePacket,     // source cadence: next packet wants the window
  kFrameArrival,     // forward frame reaches the destination
  kFeedbackGen,      // destination batches an ack
  kFeedbackArrival,  // ack reaches the source
  kTick,             // controller timer at the source
};

// An event's payload; its time lives in the EventQueue entry, whose
// push-order tie-break keeps equal-time events deterministic.
struct Event {
  EventType type = EventType::kTick;
  // kFrameArrival: the channel's output for this frame, captured at
  // send time so the stateful channel sees frames in transmission
  // order.
  std::vector<phy::DecodedSymbol> received;
  bool was_repair = false;
  // kFeedbackArrival payload (feedback is reliable; fields ride the
  // event, the wire cost is charged separately).
  SymbolId cumulative_ack = 0;
  std::size_t deficit = 0;
  std::uint64_t generated_at_us = 0;
};

}  // namespace

std::vector<std::uint8_t> StreamPayloadForId(std::uint64_t payload_seed,
                                             SymbolId id,
                                             std::size_t symbol_bytes) {
  Rng rng(payload_seed ^ (id * 0x9E3779B97F4A7C15ull) ^ (id >> 32));
  std::vector<std::uint8_t> data(symbol_bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return data;
}

StreamSessionStats RunStreamSession(const StreamSessionConfig& config,
                                    RedundancyController& controller,
                                    const arq::BodyChannel& channel) {
  StreamSessionStats stats;
  WindowEncoder encoder(config.window_capacity, config.symbol_bytes);
  WindowDecoder decoder(config.window_capacity, config.symbol_bytes);
  DeliveryQueue queue;
  const obs::LabelSet controller_label = {
      {"controller", std::string(controller.name())}};

  EventQueue<Event> events;
  const auto push_timer = [&](std::uint64_t at_us, EventType type) {
    Event e;
    e.type = type;
    events.Push(at_us, std::move(e));
  };

  std::uint64_t now_us = 0;
  std::uint64_t link_free_us = 0;  // forward link is FIFO-serialized
  std::size_t packets_pushed = 0;
  std::size_t packets_waiting = 0;  // backpressured by a full window
  bool cadence_paused = false;      // source stops producing while blocked
  std::uint32_t repair_seed = 0;
  // Send times of recent repair frames: how many the latest feedback
  // cannot have seen yet.
  std::deque<std::uint64_t> repair_send_times;
  std::size_t reported_deficit = 0;
  std::uint64_t last_feedback_gen_us = 0;

  const auto all_pushed = [&] {
    return packets_pushed == config.total_packets;
  };
  const auto flow_done = [&] {
    return all_pushed() && packets_waiting == 0 &&
           queue.total_released() >= config.total_packets;
  };

  // Sends one frame on the FIFO forward link: pays airtime from the
  // later of `now` and the link becoming free, then propagation. The
  // channel runs at send time so its state advances in frame order.
  const auto send_frame = [&](const BitVec& frame, bool is_repair) {
    const std::uint64_t airtime_us = static_cast<std::uint64_t>(
        static_cast<double>(frame.size()) * 1e6 / config.link_rate_bps);
    const std::uint64_t start = std::max(now_us, link_free_us);
    link_free_us = start + airtime_us;
    Event arrival;
    arrival.type = EventType::kFrameArrival;
    arrival.received = channel(frame);
    arrival.was_repair = is_repair;
    events.Push(link_free_us + config.propagation_us, std::move(arrival));
    if (is_repair) {
      ++stats.repair_sent;
      stats.repair_bits += frame.size();
      repair_send_times.push_back(start);
      obs::Count("stream.session.repair_sent");
    } else {
      ++stats.source_sent;
      stats.source_bits += frame.size();
      obs::Count("stream.session.source_sent");
    }
  };

  const auto controller_inputs = [&] {
    ControllerInputs in;
    in.now_us = now_us;
    in.in_flight = encoder.in_flight();
    in.source_sent = stats.source_sent;
    in.repair_sent = stats.repair_sent;
    in.reported_deficit = reported_deficit;
    // Frames sent after (feedback generation - propagation) cannot be
    // reflected in that feedback.
    const std::uint64_t horizon =
        last_feedback_gen_us > config.propagation_us
            ? last_feedback_gen_us - config.propagation_us
            : 0;
    in.repairs_in_flight = static_cast<std::size_t>(std::count_if(
        repair_send_times.begin(), repair_send_times.end(),
        [&](std::uint64_t t) { return t >= horizon; }));
    if (encoder.in_flight() > 0) {
      if (const auto sent = queue.SentAt(encoder.first_unacked())) {
        in.oldest_unacked_age_us = now_us - *sent;
      }
    }
    return in;
  };

  const auto emit_repairs = [&](std::size_t budget) {
    for (std::size_t i = 0; i < budget && encoder.in_flight() > 0; ++i) {
      send_frame(EncodeRepairFrame(encoder.MakeRepair(repair_seed++)),
                 /*is_repair=*/true);
    }
  };

  const auto consult = [&](ControllerEvent event) {
    emit_repairs(controller.RepairBudget(event, controller_inputs()));
  };

  // One source packet through window + wire; false on backpressure.
  const auto try_send_packet = [&] {
    auto payload = StreamPayloadForId(config.payload_seed,
                                      encoder.next_id(), config.symbol_bytes);
    const auto id = encoder.Push(std::move(payload));
    if (!id.has_value()) return false;
    queue.OnSourceSent(*id, now_us);
    send_frame(EncodeSourceFrame(*id, encoder.Symbol(*id)),
               /*is_repair=*/false);
    ++packets_pushed;
    consult(ControllerEvent::kSourceSent);
    return true;
  };

  // Releases whatever the decoder can deliver in order, verifying
  // payload integrity and recording latency.
  const auto release_deliverable = [&] {
    auto deliverable = decoder.PopDeliverable();
    if (deliverable.empty()) return;
    const std::size_t released = queue.Release(std::move(deliverable), now_us);
    const auto& all = queue.delivered();
    for (std::size_t i = all.size() - released; i < all.size(); ++i) {
      const DeliveredPacket& p = all[i];
      ++stats.delivered;
      const std::uint64_t latency = p.LatencyUs();
      stats.latency_us.Record(latency);
      obs::ObserveLabeled("stream.delivery.latency_us", controller_label,
                          latency);
      if (p.recovered) {
        ++stats.recovered;
        stats.recovered_latency_us.Record(latency);
        obs::ObserveLabeled("stream.delivery.recovered_latency_us",
                            controller_label, latency);
      }
      if (p.data !=
          StreamPayloadForId(config.payload_seed, p.id, config.symbol_bytes)) {
        ++stats.payload_mismatches;
      }
    }
  };

  // Prime the schedule.
  push_timer(0, EventType::kSourcePacket);
  push_timer(config.feedback_interval_us, EventType::kFeedbackGen);
  push_timer(config.tick_interval_us, EventType::kTick);

  while (auto entry = events.Pop()) {
    const Event& e = entry->payload;
    now_us = entry->time;
    if (now_us > config.max_duration_us) break;

    switch (e.type) {
      case EventType::kSourcePacket: {
        if (all_pushed()) break;
        if (try_send_packet()) {
          if (!all_pushed()) {
            push_timer(now_us + config.packet_interval_us,
                       EventType::kSourcePacket);
          }
        } else {
          // Window full: the flow-controlled source holds this packet
          // and pauses its cadence until an ack advances the window
          // (drained on feedback arrival).
          ++packets_waiting;
          cadence_paused = true;
          ++stats.backpressure_stalls;
          obs::Count("stream.session.backpressure");
        }
        break;
      }

      case EventType::kFrameArrival: {
        const BitVec bits = arq::SymbolsToLogicalBits(e.received);
        const ParsedFrame frame = ParseFrame(bits, config.symbol_bytes);
        if (!frame.valid) {
          if (e.was_repair) {
            ++stats.repair_frames_lost;
          } else {
            ++stats.source_frames_lost;
          }
          obs::CountLabeled("stream.session.frames_lost",
                            {{"type", e.was_repair ? "repair" : "source"}});
          break;
        }
        const auto id = ExpandSymbolId(frame.wire_id, decoder.highest_seen());
        if (!id.has_value()) {
          ++stats.ambiguous_id_dropped;
          obs::Count("stream.session.ambiguous_id_dropped");
          break;
        }
        if (frame.type == kTypeSource) {
          decoder.AddSource(*id, frame.payload);
        } else {
          StreamRepairSymbol repair;
          repair.first_id = *id;
          repair.span = frame.span;
          repair.seed = frame.seed;
          repair.data = frame.payload;
          decoder.AddRepair(repair);
        }
        release_deliverable();
        break;
      }

      case EventType::kFeedbackGen: {
        Event ack;
        ack.type = EventType::kFeedbackArrival;
        ack.cumulative_ack = decoder.next_expected();
        ack.deficit = decoder.Deficit();
        ack.generated_at_us = now_us;
        events.Push(now_us + config.propagation_us, std::move(ack));
        stats.feedback_bits += kFeedbackBits;
        ++stats.feedback_frames;
        if (!flow_done()) {
          push_timer(now_us + config.feedback_interval_us,
                     EventType::kFeedbackGen);
        }
        break;
      }

      case EventType::kFeedbackArrival: {
        encoder.Advance(e.cumulative_ack);
        reported_deficit = e.deficit;
        last_feedback_gen_us = e.generated_at_us;
        // Drop repair-send records old enough that every future
        // feedback reflects them.
        const std::uint64_t horizon =
            e.generated_at_us > config.propagation_us
                ? e.generated_at_us - config.propagation_us
                : 0;
        while (!repair_send_times.empty() &&
               repair_send_times.front() < horizon) {
          repair_send_times.pop_front();
        }
        // The window advanced: admit backpressured packets first, so
        // their frames precede the repair that protects them.
        while (packets_waiting > 0 && try_send_packet()) --packets_waiting;
        if (cadence_paused && packets_waiting == 0) {
          cadence_paused = false;
          if (!all_pushed()) {
            push_timer(now_us + config.packet_interval_us,
                       EventType::kSourcePacket);
          }
        }
        consult(ControllerEvent::kFeedbackReceived);
        if (all_pushed() && encoder.in_flight() > 0) {
          // Tail closing: identical for every controller (see header).
          // A zero reported deficit with nothing in flight means the
          // destination never saw the tail referenced — one repair both
          // references and (often) repairs it.
          const auto in = controller_inputs();
          std::size_t want = e.deficit > in.repairs_in_flight
                                 ? e.deficit - in.repairs_in_flight
                                 : 0;
          if (want == 0 && in.repairs_in_flight == 0) want = 1;
          emit_repairs(want);
        } else if ((cadence_paused || packets_waiting > 0) &&
                   encoder.in_flight() > 0 &&
                   controller_inputs().repairs_in_flight == 0) {
          // Stall watchdog, the mid-stream analogue of the closing
          // flush (and of TCP's zero-window probe): the window is full
          // and the controller left the air idle. In particular, when
          // an erasure burst swallows every frame of a full window the
          // destination has nothing to report a deficit against —
          // reported_deficit stays 0 and an ack-driven policy would
          // deadlock until max_duration. One repair per feedback round
          // references the window and restarts recovery; it charges
          // every controller identically.
          emit_repairs(1);
          obs::Count("stream.session.stall_probe");
        }
        break;
      }

      case EventType::kTick: {
        consult(ControllerEvent::kTick);
        if (!flow_done()) {
          push_timer(now_us + config.tick_interval_us, EventType::kTick);
        }
        break;
      }
    }

    if (flow_done() && events.Empty()) break;
  }

  stats.undelivered = config.total_packets - queue.total_released();
  stats.decoder_stale_dropped = decoder.stale_dropped();
  stats.decoder_overflow_dropped = decoder.overflow_dropped();
  stats.finished_at_us = now_us;
  obs::Count("stream.session.delivered", stats.delivered);
  obs::Count("stream.session.recovered", stats.recovered);
  return stats;
}

}  // namespace ppr::stream
