// CRC implementations used by the framing and ARQ layers.
//
// - CRC-32 (IEEE 802.3 polynomial, reflected): whole-packet and
//   per-fragment checksums, as in the paper's Packet CRC and Fragmented
//   CRC schemes ("32-bit CRC check", section 7.2).
// - CRC-16/CCITT (as used for the 802.15.4 frame check sequence): header
//   and trailer checksums, where a 2-byte check keeps overhead small.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.h"

namespace ppr {

// Computes the IEEE CRC-32 (polynomial 0xEDB88320, reflected, init and
// final XOR 0xFFFFFFFF) over a byte span.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

// CRC-32 over a bit vector: the bits are packed MSB-first into bytes
// (zero-padded) and the byte CRC is computed. Used for run/fragment
// checks where payload boundaries are in bits.
std::uint32_t Crc32Bits(const BitVec& bits);

// CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF), the FCS used by
// IEEE 802.15.4 frames.
std::uint16_t Crc16(std::span<const std::uint8_t> data);

}  // namespace ppr
