// The currency the collision subsystem hands the decoder: GF(256)
// equations over one flow's FEC source symbols. Kept dependency-free so
// arq::SessionMessage (recovery_session.h) can carry them as kEquations
// without pulling the whole subsystem into its header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppr::collide {

// coefs . source_symbols = data, byte-wise over GF(256) (XOR is
// addition in characteristic 2, so a cross-cancelled superposition
// S_i ^ S_j = d is the two-term equation {coefs[i]=coefs[j]=1}).
// `suspicion` orders eviction when a decode fails verification: the
// accumulated stripping-chain / XOR-decode Hamming confidence that
// produced the equation.
struct CollisionEquation {
  std::vector<std::uint8_t> coefs;
  std::vector<std::uint8_t> data;
  double suspicion = 0.0;
};

}  // namespace ppr::collide
