#include "common/bitvec.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/popcount.h"

namespace ppr {
namespace {

// Mask of the low `width` bits, width <= 64.
std::uint64_t LowMask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

// Reverses the bit order inside each byte of `x`: storage order (LSB =
// first bit) <-> MSB-first byte order.
std::uint64_t ReverseBitsInBytes(std::uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555u) | ((x & 0x5555555555555555u) << 1);
  x = ((x >> 2) & 0x3333333333333333u) | ((x & 0x3333333333333333u) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Fu) | ((x & 0x0F0F0F0F0F0F0F0Fu) << 4);
  return x;
}

// The low `width` bits of `value` in reverse order, in the low `width`
// bits of the result; bits of `value` above `width` are dropped.
std::uint64_t ReverseLow(std::uint64_t value, unsigned width) {
  if (width == 0) return 0;
  return __builtin_bswap64(ReverseBitsInBytes(value)) >> (64 - width);
}

void CheckWidth(unsigned width, const char* what) {
  if (width > 64) {
    throw std::invalid_argument(std::string(what) + ": width above 64");
  }
}

// Written so that pos + count cannot overflow.
void CheckRange(std::size_t pos, std::size_t count, std::size_t size,
                const char* what) {
  if (pos > size || count > size - pos) {
    throw std::out_of_range(std::string(what) + ": range past the end");
  }
}

}  // namespace

BitVec::BitVec(std::size_t n, bool value)
    : words_((n + kWordBits - 1) / kWordBits,
             value ? ~std::uint64_t{0} : std::uint64_t{0}),
      size_(n) {
  if (value && size_ % kWordBits != 0) {
    // Keep unused high bits of the last word zero so PopCount and
    // equality can operate on whole words.
    words_.back() &= (std::uint64_t{1} << (size_ % kWordBits)) - 1;
  }
}

BitVec BitVec::FromString(std::string_view bits) {
  BitVec v;
  for (char c : bits) {
    if (c == '0') {
      v.PushBack(false);
    } else if (c == '1') {
      v.PushBack(true);
    } else {
      throw std::invalid_argument("BitVec::FromString: bad character");
    }
  }
  return v;
}

BitVec BitVec::FromBytes(std::span<const std::uint8_t> bytes) {
  BitVec v;
  v.words_.resize((bytes.size() + 7) / 8);
  for (std::size_t k = 0; k < v.words_.size(); ++k) {
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - 8 * k);
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < n; ++j) {
      w |= std::uint64_t{bytes[8 * k + j]} << (8 * j);
    }
    v.words_[k] = ReverseBitsInBytes(w);
  }
  v.size_ = 8 * bytes.size();
  return v;
}

bool BitVec::Get(std::size_t i) const {
  assert(i < size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::Set(std::size_t i, bool value) {
  assert(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVec::Flip(std::size_t i) {
  assert(i < size_);
  words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
}

void BitVec::PushBack(bool bit) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  if (bit) words_.back() |= std::uint64_t{1} << (size_ % kWordBits);
  ++size_;
}

std::uint64_t BitVec::ReadWord(std::size_t pos, unsigned width) const {
  if (width == 0) return 0;
  const std::size_t w = pos / kWordBits;
  const unsigned off = pos % kWordBits;
  std::uint64_t value = words_[w] >> off;
  if (off + width > kWordBits) value |= words_[w + 1] << (kWordBits - off);
  return value & LowMask(width);
}

void BitVec::WriteWord(std::size_t pos, std::uint64_t value,
                       unsigned width) {
  if (width == 0) return;
  const std::uint64_t mask = LowMask(width);
  value &= mask;
  const std::size_t w = pos / kWordBits;
  const unsigned off = pos % kWordBits;
  words_[w] = (words_[w] & ~(mask << off)) | (value << off);
  if (off + width > kWordBits) {
    const unsigned written = kWordBits - off;
    words_[w + 1] = (words_[w + 1] & ~(mask >> written)) | (value >> written);
  }
}

void BitVec::AppendWord(std::uint64_t value, unsigned width) {
  const std::size_t pos = size_;
  size_ += width;
  words_.resize((size_ + kWordBits - 1) / kWordBits);
  WriteWord(pos, value, width);
}

void BitVec::AppendUint(std::uint64_t value, unsigned width) {
  CheckWidth(width, "BitVec::AppendUint");
  AppendWord(ReverseLow(value, width), width);
}

void BitVec::AppendLsbFirst(std::uint64_t value, unsigned width) {
  CheckWidth(width, "BitVec::AppendLsbFirst");
  AppendWord(value, width);
}

void BitVec::AppendBits(const BitVec& other) {
  // `n` is read once and `other` is indexed afresh for every word, so a
  // vector appended to itself is copied once, even when this reallocates.
  const std::size_t n = other.size_;
  for (std::size_t done = 0; done < n; done += kWordBits) {
    AppendWord(other.words_[done / kWordBits],
               static_cast<unsigned>(std::min(kWordBits, n - done)));
  }
}

std::uint64_t BitVec::ReadUint(std::size_t pos, unsigned width) const {
  CheckWidth(width, "BitVec::ReadUint");
  CheckRange(pos, width, size_, "BitVec::ReadUint");
  return ReverseLow(ReadWord(pos, width), width);
}

std::uint64_t BitVec::ReadLsbFirst(std::size_t pos, unsigned width) const {
  CheckWidth(width, "BitVec::ReadLsbFirst");
  CheckRange(pos, width, size_, "BitVec::ReadLsbFirst");
  return ReadWord(pos, width);
}

void BitVec::WriteUint(std::size_t pos, std::uint64_t value, unsigned width) {
  CheckWidth(width, "BitVec::WriteUint");
  CheckRange(pos, width, size_, "BitVec::WriteUint");
  WriteWord(pos, ReverseLow(value, width), width);
}

BitVec BitVec::Slice(std::size_t pos, std::size_t count) const {
  CheckRange(pos, count, size_, "BitVec::Slice");
  BitVec out;
  out.words_.resize((count + kWordBits - 1) / kWordBits);
  for (std::size_t k = 0; k < out.words_.size(); ++k) {
    const std::size_t done = k * kWordBits;
    out.words_[k] = ReadWord(
        pos + done, static_cast<unsigned>(std::min(kWordBits, count - done)));
  }
  out.size_ = count;
  return out;
}

std::vector<std::uint8_t> BitVec::ToBytes() const {
  std::vector<std::uint8_t> out((size_ + 7) / 8);
  for (std::size_t k = 0; k < words_.size(); ++k) {
    // The zero tail above size_ pads the final byte.
    const std::uint64_t w = ReverseBitsInBytes(words_[k]);
    const std::size_t n = std::min<std::size_t>(8, out.size() - 8 * k);
    for (std::size_t j = 0; j < n; ++j) {
      out[8 * k + j] = static_cast<std::uint8_t>(w >> (8 * j));
    }
  }
  return out;
}

std::string BitVec::ToString() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(Get(i) ? '1' : '0');
  return s;
}

std::size_t BitVec::HammingDistance(const BitVec& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVec::HammingDistance: size mismatch");
  }
  std::size_t d = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    d += static_cast<std::size_t>(ppr::PopCount(words_[w] ^ other.words_[w]));
  }
  return d;
}

std::size_t BitVec::PopCount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) {
    n += static_cast<std::size_t>(ppr::PopCount(w));
  }
  return n;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

void BitVec::Clear() {
  words_.clear();
  size_ = 0;
}

}  // namespace ppr
