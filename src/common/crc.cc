#include "common/crc.h"

#include <array>

namespace ppr {
namespace {

std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = MakeCrc32Table();
  return table;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  const auto& table = Crc32Table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Bits(const BitVec& bits) {
  const auto bytes = bits.ToBytes();
  return Crc32(bytes);
}

std::uint16_t Crc16(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFFu;
  for (std::uint8_t b : data) {
    crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(b) << 8));
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 0x8000u)
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

}  // namespace ppr
