// Compact growable bit vector used throughout PPR for payload bits,
// chip streams, and the bit-efficient PP-ARQ feedback encoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ppr {

// A sequence of bits with O(1) append and random access. Bits are stored
// LSB-first within each 64-bit word; the logical order of bits is the
// append order. This is the common currency between the framing layer
// (payload bits), the spreader (bits -> chips), and the feedback codec
// (variable-width fields).
//
// Bytes and unsigned fields are serialised most-significant bit first
// (FromBytes/ToBytes, AppendUint/ReadUint/WriteUint); the *LsbFirst
// calls move bits in storage order, which is also phy::ChipWord's
// (chip 0 in the LSB). The multi-bit calls work a 64-bit word at a
// time. Slice and the positioned reads and writes check their range in
// every build and throw std::out_of_range past the end; a width above
// 64 throws std::invalid_argument.
class BitVec {
 public:
  BitVec() = default;

  // Constructs a vector of `n` bits, all initialised to `value`.
  explicit BitVec(std::size_t n, bool value = false);

  // Builds a BitVec from a string of '0'/'1' characters. Any other
  // character throws std::invalid_argument. Intended for tests and for
  // writing down known chip sequences readably.
  static BitVec FromString(std::string_view bits);

  // Unpacks bytes MSB-first (network order within a byte), the convention
  // used by 802.15.4 framing in this codebase.
  static BitVec FromBytes(std::span<const std::uint8_t> bytes);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(std::size_t i) const;
  void Set(std::size_t i, bool value);
  // Flips bit `i`; used by the channel models to inject chip errors.
  void Flip(std::size_t i);

  void PushBack(bool bit);
  // Appends the low `width` bits of `value`, most-significant first.
  void AppendUint(std::uint64_t value, unsigned width);
  // Appends the low `width` bits of `value`, least-significant first:
  // bit i of `value` becomes bit size() + i.
  void AppendLsbFirst(std::uint64_t value, unsigned width);
  void AppendBits(const BitVec& other);

  // Reads `width` bits starting at `pos`, most-significant first.
  std::uint64_t ReadUint(std::size_t pos, unsigned width) const;
  // Reads `width` bits starting at `pos`, least-significant first: bit
  // pos + i becomes bit i of the result. Inverse of AppendLsbFirst.
  std::uint64_t ReadLsbFirst(std::size_t pos, unsigned width) const;
  // Overwrites bits [pos, pos + width) with the low `width` bits of
  // `value`, most-significant first, so ReadUint(pos, width) returns them.
  void WriteUint(std::size_t pos, std::uint64_t value, unsigned width);

  // Extracts bits [pos, pos + count) as a new vector.
  BitVec Slice(std::size_t pos, std::size_t count) const;

  // Packs to bytes MSB-first; the final byte is zero-padded if size() is
  // not a multiple of 8.
  std::vector<std::uint8_t> ToBytes() const;

  std::string ToString() const;

  // Number of positions at which *this and `other` differ. Sizes must
  // match. This is the Hamming-distance primitive behind the SoftPHY hint.
  std::size_t HammingDistance(const BitVec& other) const;

  // Number of set bits.
  std::size_t PopCount() const;

  bool operator==(const BitVec& other) const;

  void Clear();

 private:
  static constexpr std::size_t kWordBits = 64;

  // Unchecked word cores of the multi-bit calls: width <= 64 and the
  // range lies inside the vector. Bits move LSB-first.
  std::uint64_t ReadWord(std::size_t pos, unsigned width) const;
  void WriteWord(std::size_t pos, std::uint64_t value, unsigned width);
  void AppendWord(std::uint64_t value, unsigned width);

  // Invariant: words_.size() == ceil(size_ / 64), and the bits of the
  // last word at and above size_ % 64 are zero, so PopCount, equality
  // and HammingDistance can work on whole words.
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace ppr
