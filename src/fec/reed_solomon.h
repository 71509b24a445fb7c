// Systematic Reed-Solomon erasure codec over GF(2^16) with O(n log n)
// encode and decode via the additive FFT (fft.h) — the large-block
// alternative to RLNC Gaussian elimination (codec.h::CodecKind), after
// flec's rs_gf65536 scheme (itself the leopard/LCH construction).
//
// Framing: K = the smallest power of two >= max(k, m). The codeword
// polynomial P (degree < K, novel basis) interpolates the k source
// symbols at evaluation points [0, k) and virtual zeros at [k, K);
// the m parity symbols are P's evaluations at points [K, K + m).
// Erasure decode treats every unreceived position — missing data,
// missing parity, and the never-materialized tail [K + m, 2K) — as an
// erasure of the length-2K codeword and recovers via the classic
// product trick: with erasure locator e(x) = prod (x ^ u) over erased
// points u, the padded received word d_u = c_u * e(u) equals the
// evaluation of N = P * e everywhere (it is 0 at erasures, where
// e(u) = 0). deg N < 2K, so one IFFT recovers N's coefficients; a
// formal derivative and one FFT yield N'(u) = P(u) * e'(u) at every
// erased u, and P(u) = N'(u) / e'(u) is the missing symbol. Total:
// three size-2K transforms + one derivative, O(K log K) symbol ops —
// against Gaussian elimination's O(k^2).
//
// The locator evaluations e(u) (and e'(u) at erased u) come from one
// log-domain pass: log e(u) = sum over erased v of log(u ^ v), with
// log 0 := 0 dropping the v == u term — which makes the same array
// serve as e(u) at survivors and e'(u) at erasures. Small blocks sum
// directly (O(2K * |E|)); large blocks use a Walsh-Hadamard XOR
// convolution over the full 65536-point domain mod 65535, where
// 65536 === 1 makes the inverse transform normalization-free.
//
// Scope: pure erasure code — the decoder banks source and parity
// symbols that arrived verbatim, never dense equations. The flow
// engine runs it for large-block erasure flows (CodecKind::kReedSolomon);
// PP-ARQ coded repair, relays, collision recovery and the stream
// session bank dense rows (SoftPHY suspicion, relay masks, window
// combinations) and run RLNC only. symbol_bytes must be even (symbols
// are arrays of 16-bit field elements).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/gf65536.h"

namespace ppr::fec {

// Shared shape checks; throws std::invalid_argument on bad (k, m,
// symbol_bytes). k + m positions must fit the [0, K) + [K, K + m)
// framing: k <= 32768, m <= K.
std::size_t RsBlockSize(std::size_t k, std::size_t m);  // returns K

class ReedSolomonEncoder {
 public:
  ReedSolomonEncoder(std::size_t k, std::size_t m, std::size_t symbol_bytes);

  std::size_t num_source() const { return k_; }
  std::size_t num_parity() const { return m_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }

  // Stages source symbol i (copied). All k symbols must be set before
  // Finish(); setting after Finish() requires Reset() first.
  void SetSource(std::size_t i, std::span<const std::uint8_t> data);

  // Computes all m parity symbols in one batch (IFFT + coset FFT).
  void Finish();

  // Parity symbol j; requires Finish().
  std::span<const std::uint8_t> Parity(std::size_t j) const;

  // Clears staged sources and parity for the next block.
  void Reset();

 private:
  std::size_t k_, m_, symbol_bytes_, words_, cap_;
  bool finished_ = false;
  std::vector<Gf16> work_;   // K x words: data, then P's coefficients
  std::vector<Gf16> coset_;  // K x words: P evaluated on [K, 2K)
};

class ReedSolomonDecoder {
 public:
  ReedSolomonDecoder(std::size_t k, std::size_t m, std::size_t symbol_bytes);

  std::size_t num_source() const { return k_; }
  std::size_t num_parity() const { return m_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }

  // Returns true when the symbol was new (not yet banked).
  bool AddSourceSpan(std::size_t i, std::span<const std::uint8_t> data);
  bool AddParitySpan(std::size_t j, std::span<const std::uint8_t> data);

  // Independent symbols still needed before decoding is possible.
  std::size_t Deficit() const {
    const std::size_t have = known_data_ + known_parity_;
    return have >= k_ ? 0 : k_ - have;
  }
  bool CanDecode() const { return Deficit() == 0; }
  // All source symbols banked or recovered.
  bool Complete() const { return known_data_ == k_; }

  // Recovers every missing source symbol; requires CanDecode(). After
  // Decode(), Complete() holds and Symbol(i) is valid for all i.
  void Decode();

  // Source symbol i; requires it known (received or decoded).
  std::span<const std::uint8_t> Symbol(std::size_t i) const;

  // Back to an empty block with the same shape.
  void Reset();

 private:
  std::size_t k_, m_, symbol_bytes_, words_, cap_;
  std::size_t known_data_ = 0, known_parity_ = 0;
  std::vector<Gf16> syms_;  // (k + m) x words received/recovered image
  std::vector<bool> have_;  // per position
  // Decode workspace, allocated on first Decode and reused.
  std::vector<Gf16> work_;     // 2K x words
  std::vector<Gf16> scratch_;  // 2K x words (formal derivative)
  std::vector<std::uint32_t> loc_;  // 2K locator logs
};

}  // namespace ppr::fec
