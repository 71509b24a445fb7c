#include "fec/coded_repair.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace ppr::fec {

std::vector<std::vector<std::uint8_t>> BodyToSymbols(
    const BitVec& body, std::size_t bits_per_codeword,
    std::size_t codewords_per_symbol) {
  const std::size_t symbol_bits = bits_per_codeword * codewords_per_symbol;
  if (symbol_bits == 0 || symbol_bits % 8 != 0) {
    throw std::invalid_argument(
        "BodyToSymbols: symbol size must be whole octets");
  }
  if (body.size() % bits_per_codeword != 0) {
    throw std::invalid_argument("BodyToSymbols: ragged body");
  }
  // Symbols start on octet boundaries, so each is a run of the body's
  // bytes; ToBytes already zero-pads the final byte.
  const std::size_t symbol_bytes = symbol_bits / 8;
  const std::vector<std::uint8_t> bytes = body.ToBytes();
  std::vector<std::vector<std::uint8_t>> symbols;
  symbols.reserve((bytes.size() + symbol_bytes - 1) / symbol_bytes);
  for (std::size_t begin = 0; begin < bytes.size(); begin += symbol_bytes) {
    const std::size_t end = std::min(bytes.size(), begin + symbol_bytes);
    auto& symbol = symbols.emplace_back(bytes.begin() + begin,
                                        bytes.begin() + end);
    symbol.resize(symbol_bytes, 0);
  }
  return symbols;
}

BitVec SymbolsToBody(const std::vector<std::vector<std::uint8_t>>& symbols,
                     std::size_t body_bits) {
  std::vector<std::uint8_t> bytes;
  for (const auto& s : symbols) {
    bytes.insert(bytes.end(), s.begin(), s.end());
    if (8 * bytes.size() >= body_bits) break;
  }
  if (8 * bytes.size() < body_bits) {
    throw std::invalid_argument("SymbolsToBody: symbols cover too few bits");
  }
  return BitVec::FromBytes(bytes).Slice(0, body_bits);
}

namespace {

const std::vector<std::vector<std::uint8_t>>& ValidatedBlock(
    const std::vector<std::vector<std::uint8_t>>& received) {
  if (received.empty() || received.front().empty()) {
    throw std::invalid_argument("CodedRepairSession: empty source block");
  }
  return received;
}

}  // namespace

CodedRepairSession::CodedRepairSession(
    std::vector<std::vector<std::uint8_t>> received, std::vector<bool> good,
    std::vector<double> suspicion)
    : received_(std::move(received)),
      trusted_(std::move(good)),
      suspicion_(std::move(suspicion)),
      decoder_(ValidatedBlock(received_).size(), received_.front().size()) {
  if (trusted_.size() != received_.size() ||
      suspicion_.size() != received_.size()) {
    throw std::invalid_argument("CodedRepairSession: label shape mismatch");
  }
  Rebuild();
}

bool CodedRepairSession::ConsumeRepair(const RepairSymbol& repair) {
  coef_scratch_.resize(num_source());
  RepairCoefficientsInto(repair.seed, coef_scratch_);
  return ConsumeEquation(coef_scratch_, repair.data, /*suspicion=*/0.0,
                         /*evictable=*/false);
}

bool CodedRepairSession::ConsumeEquation(std::span<const std::uint8_t> coefs,
                                         std::span<const std::uint8_t> data,
                                         double suspicion, bool evictable,
                                         std::uint8_t party) {
  if (coefs.size() != num_source() || data.size() != symbol_bytes()) {
    throw std::invalid_argument("ConsumeEquation: shape mismatch");
  }
  BankedEquation eq;
  eq.coefs.assign(coefs.begin(), coefs.end());
  eq.data.assign(data.begin(), data.end());
  eq.suspicion = suspicion;
  eq.evictable = evictable;
  eq.party = party;
  equations_.push_back(std::move(eq));
  const bool rank_up = decoder_.AddEquation(coefs, data);
  obs::Count(party == 0 ? "fec.coded.equations.source"
                        : "fec.coded.equations.relay");
  if (rank_up) obs::Count("fec.coded.rank_increments");
  obs::TraceInstant("coded.equation", "fec", [&] {
    return obs::TraceArgs{
        {"party", static_cast<std::int64_t>(party)},
        {"rank", static_cast<std::int64_t>(decoder_.rank())},
        {"rank_up", rank_up ? 1 : 0}};
  });
  return rank_up;
}

std::vector<std::vector<std::uint8_t>> CodedRepairSession::Decode() const {
  assert(CanDecode());
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(num_source());
  for (std::size_t i = 0; i < num_source(); ++i) {
    const auto sym = decoder_.Symbol(i);
    out.emplace_back(sym.begin(), sym.end());
  }
  return out;
}

std::size_t CodedRepairSession::EvictSuspects() {
  // One candidate list across both row kinds — still-trusted systematic
  // symbols (individually) and evictable equations grouped by
  // originating party (a relay's equations all share the relay's body
  // image, so a miss poisons them together) — most suspect first;
  // stable order for determinism. A party group's suspicion is the
  // worst across its still-banked rows.
  struct Candidate {
    double suspicion;
    bool is_party;
    std::size_t index;  // symbol index, or the party id
  };
  std::vector<Candidate> order;
  for (std::size_t i = 0; i < num_source(); ++i) {
    if (trusted_[i]) order.push_back({suspicion_[i], false, i});
  }
  std::map<std::uint8_t, double> party_suspicion;
  for (const auto& eq : equations_) {
    if (!eq.evictable || eq.distrusted) continue;
    auto [it, inserted] = party_suspicion.try_emplace(eq.party, eq.suspicion);
    if (!inserted) it->second = std::max(it->second, eq.suspicion);
  }
  for (const auto& [party, suspicion] : party_suspicion) {
    order.push_back({suspicion, true, party});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.suspicion > b.suspicion;
                   });
  const std::size_t picks = std::min(evict_batch_, order.size());
  std::size_t rows = 0;
  for (std::size_t k = 0; k < picks; ++k) {
    if (order[k].is_party) {
      for (auto& eq : equations_) {
        if (eq.evictable && !eq.distrusted &&
            eq.party == static_cast<std::uint8_t>(order[k].index)) {
          eq.distrusted = true;
          ++rows;
        }
      }
    } else {
      trusted_[order[k].index] = false;
      ++rows;
    }
  }
  evict_batch_ *= 2;
  obs::Count("fec.coded.evictions");
  obs::Count("fec.coded.evicted_rows", rows);
  obs::TraceInstant("coded.evict", "fec", [&] {
    return obs::TraceArgs{{"candidates", static_cast<std::int64_t>(order.size())},
                          {"rows", static_cast<std::int64_t>(rows)}};
  });
  if (rows > 0) Rebuild();
  return rows;
}

std::size_t CodedRepairSession::equations_from(std::uint8_t party) const {
  std::size_t n = 0;
  for (const auto& eq : equations_) {
    if (eq.evictable && !eq.distrusted && eq.party == party) ++n;
  }
  return n;
}

std::size_t CodedRepairSession::num_trusted() const {
  std::size_t n = 0;
  for (const bool t : trusted_) n += t ? 1 : 0;
  return n;
}

void CodedRepairSession::Rebuild() {
  obs::Count("fec.coded.rebuilds");
  decoder_.Reset();
  // The banked rows are borrowed, not copied, and the decoder's Reset()
  // keeps its row buffers, so a rebuild allocates nothing in steady
  // state.
  for (std::size_t i = 0; i < num_source(); ++i) {
    if (trusted_[i]) decoder_.AddSource(i, received_[i]);
  }
  for (const auto& eq : equations_) {
    // Once the basis is full every further replay is linearly dependent
    // and would only pay the elimination sweep to find that out.
    if (decoder_.Complete()) break;
    if (!eq.distrusted) decoder_.AddEquation(eq.coefs, eq.data);
  }
}

}  // namespace ppr::fec
