// Sliding-window RLNC for live streams: the continuous counterpart of
// the per-packet CodedRepairSession round loop, and the stream
// session's only repair code.
//
// The source keeps a ring-buffered window of in-flight source symbols
// keyed by monotonically increasing SymbolIds. Repair symbols are
// random linear combinations spanning exactly the unacknowledged
// window [first_unacked, next_id); cumulative acknowledgments advance
// the window and retire the oldest symbols. The destination mirrors
// the window: source symbols land verbatim, repair symbols become
// equations over the window's still-unknown columns, and incremental
// Gauss-Jordan elimination (the shared fec::GaussJordanInsert, on fused
// [coefs | data] rows) recovers losses as soon as enough independent
// equations span them. A delivered symbol is "recovered" exactly when
// elimination produced it; every AddSource symbol arrived verbatim.
//
// Window advance never re-eliminates the surviving basis. The decoder
// substitutes every known symbol out of an equation at ingest (and a
// recovered pivot column is zero in every other row by Gauss-Jordan
// reduction), so by the time the in-order frontier passes a column its
// coefficient is zero in every banked row — retiring it is pure
// bookkeeping. Delivered symbols park in a retired ring one window
// deep, so a late repair spanning an already-advanced prefix still
// substitutes those ids instead of being dropped; only repairs
// reaching back past the retired ring are discarded as stale.
//
// Shapes follow flec's window_framework (ring-buffered symbol stores,
// ambiguous-ID-gap windowing) and FEC-SRv6's convolutional RLC (repair
// over a moving generation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/gf256.h"
#include "stream/stream_ids.h"

namespace ppr::stream {

// One repair symbol over the window [first_id, first_id + span).
// `seed` regenerates the span coefficients on both sides
// (fec::RepairCoefficients), so the wire cost is a descriptor plus the
// coded payload, never a coefficient vector.
struct StreamRepairSymbol {
  SymbolId first_id = 0;
  std::uint16_t span = 0;
  std::uint32_t seed = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const StreamRepairSymbol&) const = default;
};

// Source side: the ring of unacknowledged source symbols.
class WindowEncoder {
 public:
  WindowEncoder(std::size_t capacity, std::size_t symbol_bytes);

  std::size_t capacity() const { return ring_.size(); }
  std::size_t symbol_bytes() const { return symbol_bytes_; }
  SymbolId next_id() const { return next_id_; }
  SymbolId first_unacked() const { return first_unacked_; }
  std::size_t in_flight() const {
    return static_cast<std::size_t>(next_id_ - first_unacked_);
  }
  bool Full() const { return in_flight() == capacity(); }

  // Admits one source symbol (must be symbol_bytes long) and returns
  // its id — or nullopt when the window is full (backpressure: the
  // caller holds the packet until an acknowledgment advances the
  // window).
  std::optional<SymbolId> Push(std::vector<std::uint8_t> data);

  // A repair symbol spanning the whole unacknowledged window. Requires
  // in_flight() > 0.
  StreamRepairSymbol MakeRepair(std::uint32_t seed) const;

  // Cumulative acknowledgment: every id < `cumulative_ack` is
  // delivered. Returns how many symbols were retired. Acks below the
  // current window are stale no-ops; acks beyond next_id() clamp.
  std::size_t Advance(SymbolId cumulative_ack);

  // In-flight symbol by id; requires first_unacked() <= id < next_id().
  const std::vector<std::uint8_t>& Symbol(SymbolId id) const;

 private:
  std::size_t symbol_bytes_;
  SymbolId next_id_ = 0;
  SymbolId first_unacked_ = 0;
  std::vector<std::vector<std::uint8_t>> ring_;  // slot = id % capacity
};

// One in-order deliverable symbol popped from the decoder.
struct DeliverableSymbol {
  SymbolId id = 0;
  std::vector<std::uint8_t> data;
  bool recovered = false;  // true: decoded from repair, not received verbatim
};

// Destination side: known-symbol ring plus an equation basis over the
// window's unknown columns.
class WindowDecoder {
 public:
  WindowDecoder(std::size_t capacity, std::size_t symbol_bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }

  // In-order frontier: every id below it has been popped via
  // PopDeliverable (and acknowledging it is cumulative).
  SymbolId next_expected() const { return base_; }
  // One past the highest id any frame has referenced.
  SymbolId highest_seen() const { return highest_seen_; }

  // Ids in [next_expected, highest_seen) that are neither known nor
  // pivot-covered minus banked rank — i.e. how many more independent
  // equations full recovery of the seen span needs.
  std::size_t Deficit() const;
  // Known or recovered symbols waiting in the window (including ones
  // not yet deliverable because of an earlier gap).
  std::size_t known_in_window() const { return known_count_; }
  std::size_t rank() const { return rank_; }

  // A source symbol received verbatim (id already expanded). Returns
  // true if it was new information. Frames beyond the window capacity
  // or older than the retired ring are dropped (false).
  bool AddSource(SymbolId id, std::vector<std::uint8_t> data);

  // A repair equation; known symbols (delivered ones included, via the
  // retired ring) are substituted out and the remainder joins the
  // basis. Returns true if the rank increased. Stale repairs (span
  // entirely known, or reaching back past the retired ring) and
  // repairs overrunning the window return false.
  bool AddRepair(const StreamRepairSymbol& repair);

  // Pops the known prefix at the frontier, advancing the window. The
  // caller timestamps and releases them (stream/delivery_queue.h).
  std::vector<DeliverableSymbol> PopDeliverable();

  // Diagnostics for dropped input.
  std::size_t stale_dropped() const { return stale_dropped_; }
  std::size_t overflow_dropped() const { return overflow_dropped_; }

 private:
  // One fused basis row: capacity coefficient bytes (byte i applies to
  // symbol base_ + i) followed by symbol_bytes payload bytes,
  // Gauss-Jordan reduced against every other pivot row and zero on
  // every known column.
  using Row = std::vector<std::uint8_t>;

  std::size_t Slot(SymbolId id) const {
    return static_cast<std::size_t>(id % capacity_);
  }
  std::span<std::uint8_t> Payload(Row& row) const {
    return std::span(row).subspan(capacity_);
  }
  bool Known(SymbolId id) const;
  const std::vector<std::uint8_t>& KnownData(SymbolId id) const;
  // Inserts a window-anchored row whose known columns are already
  // substituted out (fec::GaussJordanInsert), banks the surviving
  // pivot, and extracts any rows elimination turned into unit vectors.
  // Returns true if the rank increased.
  bool AddRow(Row row);
  void SetKnown(SymbolId id, std::vector<std::uint8_t> data, bool recovered);
  void ExtractUnitRows();

  std::size_t capacity_;
  std::size_t symbol_bytes_;
  SymbolId base_ = 0;          // in-order frontier == window column 0
  SymbolId highest_seen_ = 0;  // one past the highest referenced id
  std::size_t known_count_ = 0;
  std::size_t rank_ = 0;
  std::size_t stale_dropped_ = 0;
  std::size_t overflow_dropped_ = 0;
  // Active window [base_, base_ + capacity): known symbol data (slot =
  // id % capacity) with recovery provenance.
  std::vector<std::optional<std::vector<std::uint8_t>>> known_;
  std::vector<bool> recovered_;
  // Retired ring [base_ - capacity, base_): delivered data kept for
  // substituting late repairs that span the advanced prefix.
  std::vector<std::optional<std::vector<std::uint8_t>>> retired_;
  // pivots_[i] is the basis row whose leading column is base_ + i;
  // shifted on advance (retired columns are zero everywhere, so the
  // shift never re-eliminates).
  std::vector<std::optional<Row>> pivots_;
  std::vector<fec::GfTerm> terms_;  // substitution and elimination terms
};

}  // namespace ppr::stream
