// Systematic random linear network coding over GF(2^8).
//
// The source block is a fixed set of equal-size symbols (the
// codeword-aligned chunks of one packet body). Systematic transmission
// means the source symbols themselves cross the channel first (in PPR's
// case: the original packet transmission); repair symbols are random
// linear combinations of all source symbols, with the combination
// coefficients derived deterministically from a 32-bit seed so a repair
// symbol costs seed + payload on the wire rather than a full coefficient
// vector (the RLC convention of S-PRAC and the PQUIC FEC plugin).
//
// The decoder performs incremental Gauss-Jordan elimination: systematic
// symbols the receiver already trusts enter as identity rows, repair
// symbols as dense rows, and decoding succeeds as soon as the rank
// reaches the source block size. Each row is stored FUSED — one
// contiguous [coefs | data] buffer — and inserted by the shared
// fec::GaussJordanInsert (fec/gauss_jordan.h), so every elimination
// step runs as a single GF pass over coefficient and payload bytes
// together.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/gf256.h"

namespace ppr::fec {

// One coded repair symbol: `seed` regenerates the coefficient vector on
// both sides, `data` is the coded payload (symbol_bytes long).
struct RepairSymbol {
  std::uint32_t seed = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const RepairSymbol&) const = default;
};

// The n_source combination coefficients a repair seed denotes.
std::vector<std::uint8_t> RepairCoefficients(std::uint32_t seed,
                                             std::size_t n_source);

// Allocation-free form: fills `coefs` (its size is n_source) with the
// same expansion. Hot paths (the flow engine's batch planner, decoder
// ingest) call this into reused scratch instead of allocating a vector
// per repair symbol.
void RepairCoefficientsInto(std::uint32_t seed, std::span<std::uint8_t> coefs);

// Partitions the 32-bit seed space by originating repair party so
// concurrent streams (the source plus any overhearing relays) can never
// emit colliding seeds: party p owns seeds [p << 24, (p + 1) << 24).
// Party 0 (the source) keeps the plain counter range existing senders
// already use. The partition is collision-free for every distinct
// (party, counter mod 2^24) pair, which covers arbitrary relay ids up
// to kMaxRepairParties - 1 — the widest roster the 8-bit wire origin
// field can name.
inline constexpr std::size_t kMaxRepairParties = 256;
std::uint32_t PartySeed(std::uint8_t party, std::uint32_t counter);

// Provenance tag for equations distilled from collided receptions
// (src/collide/). Relay rosters are capped at 254 ids (the coded
// strategy, arq/recovery_strategy.cc), so the top party id can never
// name a relay and is reserved for collision provenance: evicting a
// poisoned stripping chain as a group never distrusts genuine relay
// traffic.
inline constexpr std::uint8_t kCollisionResolvedParty = 0xFF;

// Inverse projections of PartySeed: the owning party and the in-party
// counter a seed denotes. SeedParty(PartySeed(p, c)) == p and
// SeedCounter(PartySeed(p, c)) == c mod 2^24 for every p, c.
std::uint8_t SeedParty(std::uint32_t seed);
std::uint32_t SeedCounter(std::uint32_t seed);

// A repair equation over a PARTIAL view of the source block (the relay
// case): coefficients are regenerated densely from `seed`, then zeroed
// wherever `have` is false, and the combination runs over `symbols`
// (the relay's own copies). The receiving decoder must apply the same
// mask to accept the equation; the mask travels with the frame
// descriptor. `symbols` indices with have[i] == false are never read.
RepairSymbol MakeMaskedRepair(
    const std::vector<std::vector<std::uint8_t>>& symbols,
    const std::vector<bool>& have, std::uint32_t seed);

// The masked coefficient vector the receiver must use for a relay
// equation: RepairCoefficients(seed) with non-`have` entries zeroed.
std::vector<std::uint8_t> MaskedCoefficients(std::uint32_t seed,
                                             const std::vector<bool>& have);

class RlncEncoder {
 public:
  // All source symbols must be non-empty and the same size.
  explicit RlncEncoder(std::vector<std::vector<std::uint8_t>> source);

  std::size_t num_source() const { return source_.size(); }
  std::size_t symbol_bytes() const { return source_.front().size(); }
  const std::vector<std::vector<std::uint8_t>>& source() const {
    return source_;
  }

  RepairSymbol MakeRepair(std::uint32_t seed) const;

 private:
  std::vector<std::vector<std::uint8_t>> source_;
};

class RlncDecoder {
 public:
  RlncDecoder(std::size_t n_source, std::size_t symbol_bytes);

  std::size_t num_source() const { return n_source_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }
  std::size_t rank() const { return rank_; }
  bool Complete() const { return rank_ == n_source_; }

  // Every ingest copies its input into one reused work row, so the
  // caller's buffers are only borrowed. Each returns true if the
  // equation increased the rank, and throws std::invalid_argument on an
  // index or size that does not fit the block.

  // A systematic symbol received (or trusted) verbatim.
  bool AddSource(std::size_t index, std::span<const std::uint8_t> data);

  // A coded repair symbol; coefficients are regenerated from its seed.
  // Once the decoder is complete it returns false without looking.
  bool AddRepair(const RepairSymbol& repair);

  // A raw equation: coefs (n_source long) . source = data.
  bool AddEquation(std::span<const std::uint8_t> coefs,
                   std::span<const std::uint8_t> data);

  // Back to rank 0 with the same shape. The row buffers stay allocated
  // for the next decode, so a session that rebuilds its elimination
  // state (CodedRepairSession::Rebuild) allocates nothing.
  void Reset();

  // Decoded source symbol `i` (a view into the pivot row, valid until
  // the next mutating call); requires Complete().
  std::span<const std::uint8_t> Symbol(std::size_t i) const;

 private:
  std::size_t row_bytes() const { return n_source_ + symbol_bytes_; }

  // Inserts the work row into the basis (fec/gauss_jordan.h) and swaps
  // it into its lead column's row buffer.
  bool InsertWork();

  std::size_t n_source_;
  std::size_t symbol_bytes_;
  std::size_t rank_ = 0;
  // rows_[i] is live when the basis holds a row whose lead is column i:
  // one fused [n_source coefs | symbol_bytes data] buffer, scaled to 1
  // at i and zero at every other pivot column (Gauss-Jordan reduced).
  // At full rank each row is the unit vector e_i, so its data half IS
  // source symbol i. Dead rows keep their buffers for reuse.
  std::vector<std::vector<std::uint8_t>> rows_;
  std::vector<std::uint8_t> live_;
  // Reused scratch: the in-flight fused equation and the elimination
  // term list.
  std::vector<std::uint8_t> work_;
  std::vector<GfTerm> terms_;
};

}  // namespace ppr::fec
