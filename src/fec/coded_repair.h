// Coded-repair session: the receiver-side bridge between SoftPHY
// labeling and RLNC decoding.
//
// The packet body is split into fixed-size, codeword-aligned symbols.
// Symbols whose codewords all pass the SoftPHY threshold enter the
// decoder as trusted systematic rows; the deficit (source count minus
// rank) is what the receiver reports upstream, and the sender streams
// that many coded repair symbols (plus headroom) instead of literal
// chunk copies. Rank completion yields a decode candidate; the caller
// verifies it (packet CRC-32). When verification fails — a SoftPHY miss
// put a wrong-but-confident symbol into the basis — EvictSuspects()
// drops the least trustworthy rows (doubling the batch each failure)
// and rebuilds the basis from the survivors plus every equation still
// banked. Rows come in two kinds: the receiver's own systematic
// symbols, and foreign equations from overhearing relays
// (ConsumeEquation with evictable=true), whose copy of the body may
// itself carry a miss; both share one suspicion ordering, so recovery
// converges even when every systematic row and every relay equation is
// poisoned: the source's repair stream alone can carry the packet.
// Decoding is RLNC only: relay-masked and collision-resolved equations
// are dense rows, which an erasure code cannot bank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "fec/rlnc.h"

namespace ppr::fec {

// Splits `body` into ceil(total_codewords / codewords_per_symbol)
// symbols of codewords_per_symbol * bits_per_codeword bits each (must be
// whole octets); the tail symbol is zero-padded.
std::vector<std::vector<std::uint8_t>> BodyToSymbols(
    const BitVec& body, std::size_t bits_per_codeword,
    std::size_t codewords_per_symbol);

// Inverse of BodyToSymbols; truncates the tail padding to `body_bits`.
BitVec SymbolsToBody(const std::vector<std::vector<std::uint8_t>>& symbols,
                     std::size_t body_bits);

class CodedRepairSession {
 public:
  // `received` is the receiver's current image of every symbol, `good`
  // the SoftPHY labeling (every codeword in the symbol under threshold),
  // and `suspicion` a per-symbol score (higher = less trustworthy; e.g.
  // the worst codeword hint) ordering evictions after a failed verify.
  CodedRepairSession(std::vector<std::vector<std::uint8_t>> received,
                     std::vector<bool> good, std::vector<double> suspicion);

  std::size_t num_source() const { return received_.size(); }
  std::size_t symbol_bytes() const { return received_.front().size(); }

  // Independent symbols still needed before decoding is possible.
  std::size_t Deficit() const { return num_source() - decoder_.rank(); }

  bool CanDecode() const { return decoder_.Complete(); }

  // Banks a (CRC-validated) repair symbol from the source; returns true
  // if it increased the rank. Source equations are correct by
  // construction (the sender combines its own ground-truth bits), so
  // they are never candidates for eviction.
  bool ConsumeRepair(const RepairSymbol& repair);

  // Banks an arbitrary (CRC-validated) equation: coefs . source = data.
  // The session keeps its own copy (eviction replays it), so the
  // caller's buffers are only borrowed and a driver can feed many
  // sessions from one staging buffer.
  // `evictable` marks equations computed from a foreign, unverifiable
  // copy of the body (an overhearing relay): they pass the wire CRC yet
  // may still encode a SoftPHY miss, so a failed packet verify may
  // distrust them, ordered by `suspicion` alongside the systematic rows.
  // `party` records provenance (the originating repair party,
  // fec::PartySeed convention: 0 = source, 1+ = relay ids): every
  // evictable equation a relay contributed was computed from the SAME
  // foreign body image, so one SoftPHY miss poisons the relay's whole
  // stream and eviction distrusts that party's equations as a group.
  bool ConsumeEquation(std::span<const std::uint8_t> coefs,
                       std::span<const std::uint8_t> data, double suspicion,
                       bool evictable, std::uint8_t party = 0);

  // Decoded source symbols; requires CanDecode().
  std::vector<std::vector<std::uint8_t>> Decode() const;

  // The last decode failed external verification: distrust the most
  // suspect of the still-trusted systematic symbols and the still-banked
  // evictable equation GROUPS (one suspicion ordering across both
  // kinds; an evictable party's equations form one candidate whose
  // suspicion is the worst across its banked rows, and evicting it
  // distrusts the party's whole stream) and rebuild the basis. Returns
  // how many rows were distrusted (0 when nothing evictable remains).
  std::size_t EvictSuspects();

  std::size_t num_trusted() const;
  std::size_t repairs_banked() const { return equations_.size(); }
  // Still-banked (not distrusted) evictable equations from `party`.
  std::size_t equations_from(std::uint8_t party) const;

 private:
  struct BankedEquation {
    std::vector<std::uint8_t> coefs;
    std::vector<std::uint8_t> data;
    double suspicion = 0.0;
    bool evictable = false;
    bool distrusted = false;
    std::uint8_t party = 0;
  };

  void Rebuild();

  std::vector<std::vector<std::uint8_t>> received_;
  std::vector<bool> trusted_;
  std::vector<double> suspicion_;
  std::vector<BankedEquation> equations_;
  RlncDecoder decoder_;
  std::size_t evict_batch_ = 1;
  // Session-lifetime scratch for seed-expanded repair coefficients;
  // ConsumeRepair reuses it instead of allocating a vector per symbol.
  std::vector<std::uint8_t> coef_scratch_;
};

}  // namespace ppr::fec
