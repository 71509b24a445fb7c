// The flow engine's codec selection (engine::EngineConfig::codec).
//
// kRlnc is the default — rateless, dense random combinations, the
// right shape for small blocks. kReedSolomon is the large-block
// specialist: a fixed parity budget, systematic framing, and an
// O(k log k) FFT erasure decode over GF(2^16) (reed_solomon.h) that
// breaks RLNC's O(k^2) Gaussian-elimination wall, for the engine's
// erasure flows. Everything that banks dense rows (PP-ARQ coded
// repair, relays, collision recovery, the stream session) runs RLNC
// and has no codec switch.
#pragma once

#include <cstdint>
#include <string_view>

namespace ppr::fec {

enum class CodecKind : std::uint8_t { kRlnc = 0, kReedSolomon };

constexpr std::string_view CodecKindName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kRlnc:
      return "rlnc";
    case CodecKind::kReedSolomon:
      return "rs";
  }
  return "unknown";
}

}  // namespace ppr::fec
