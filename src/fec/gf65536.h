// GF(2^16) arithmetic for the FFT-based Reed-Solomon codec.
//
// The field is generated by the primitive polynomial
// x^16+x^12+x^3+x+1 (0x1100B) with alpha = 2. Scalar multiplication
// goes through runtime-built log/exp tables (128 KiB each — too large
// for constexpr tables, built once on first use); the hot span
// operations additionally carry an AVX2 kernel that splits each
// 16-bit operand into four nibbles and combines eight 16-entry PSHUFB
// product tables (four per output byte), the GF(2^16) analogue of the
// gf256 split-nibble scheme.
//
// Symbols are arrays of Gf16 words; byte payloads map onto them as
// native-endian 16-bit pairs (both codec ends run the same host in
// this repo, and the codec only ever promises self-consistency).
// The FFT's two butterfly shapes are provided fused — multiply and
// XOR in one pass over both symbols — because at transform sizes the
// extra sweep of memory traffic, not the arithmetic, is the cost.
#pragma once

#include <cstdint>
#include <span>

namespace ppr::fec {

using Gf16 = std::uint16_t;

inline constexpr unsigned kGf16Order = 65536;
inline constexpr unsigned kGf16PrimitivePoly = 0x1100B;

// alpha^power for power in [0, 2*65535); exponents at or above 65535
// wrap so log-domain sums need no modular reduction.
Gf16 Gf16Exp(unsigned power);

// Discrete log base alpha; a must be nonzero. In [0, 65535).
unsigned Gf16Log(Gf16 a);

Gf16 Gf16Mul(Gf16 a, Gf16 b);

// Multiplicative inverse; a must be nonzero.
Gf16 Gf16Inv(Gf16 a);

// a / b; b must be nonzero.
Gf16 Gf16Div(Gf16 a, Gf16 b);

// ------------------------------------------------------------ span ops
// All spans are counts of Gf16 words. dst/src (x/y) must be equal
// length; mismatches clamp to the shorter span.

// dst[i] ^= coef * src[i].
void Gf16Axpy(std::span<Gf16> dst, Gf16 coef, std::span<const Gf16> src);

// data[i] *= coef, in place.
void Gf16Scale(std::span<Gf16> data, Gf16 coef);

// Fused forward FFT butterfly: x ^= skew * y, then y ^= x. skew == 0
// degenerates to y ^= x.
void Gf16ButterflyFwd(std::span<Gf16> x, std::span<Gf16> y, Gf16 skew);

// Fused inverse FFT butterfly: y ^= x, then x ^= skew * y.
void Gf16ButterflyInv(std::span<Gf16> x, std::span<Gf16> y, Gf16 skew);

// Scalar reference implementations, always compiled: the property
// tests pit the dispatched kernels against these on random spans.
namespace gf16_ref {
void Axpy(std::span<Gf16> dst, Gf16 coef, std::span<const Gf16> src);
void Scale(std::span<Gf16> data, Gf16 coef);
}  // namespace gf16_ref

}  // namespace ppr::fec
