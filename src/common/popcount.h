// Bit counting for the chip-decision plane.
//
// The generic x86-64 target has no POPCNT instruction, so gcc lowers
// std::popcount to a call into libgcc (__popcountdi2, through the PLT
// in every binary). The hint of section 3.2 is a popcount per 32-chip
// word, so that call sat in the innermost loop of every despreader.
// This SWAR count compiles to a dozen inline ALU instructions on any
// target and needs no build flag or runtime dispatch.
#pragma once

#include <cstdint>

namespace ppr {

// Number of set bits in `x`: pairwise sums in 2-, 4- and 8-bit fields,
// then one multiply adds the eight byte counts into the top byte.
constexpr int PopCount(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace ppr
