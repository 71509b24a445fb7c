#include "fec/gf65536.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define PPR_GF16_X86 1
#include <immintrin.h>
#endif

namespace ppr::fec {
namespace {

struct Tables {
  // exp_ is doubled so log-domain sums index it without reduction.
  Gf16 exp_[2 * 65535];
  // log_[0] is a harmless 0 sentinel; callers never take log(0).
  Gf16 log_[65536];
};

const Tables& GetTables() {
  static const Tables t = [] {
    Tables tab;
    tab.log_[0] = 0;
    unsigned x = 1;
    for (unsigned i = 0; i < 65535; ++i) {
      tab.exp_[i] = static_cast<Gf16>(x);
      tab.exp_[i + 65535] = static_cast<Gf16>(x);
      tab.log_[x] = static_cast<Gf16>(i);
      x <<= 1;
      if (x & 0x10000) x ^= kGf16PrimitivePoly;
    }
    return tab;
  }();
  return t;
}

inline Gf16 MulTab(const Tables& t, Gf16 a, Gf16 b) {
  if (a == 0 || b == 0) return 0;
  return t.exp_[static_cast<unsigned>(t.log_[a]) + t.log_[b]];
}

// dst ^= src, word-wide over the byte image (spans carry no alignment
// guarantee, so everything goes through memcpy).
void XorWords(Gf16* dst, const Gf16* src, std::size_t n) {
  auto* d8 = reinterpret_cast<std::uint8_t*>(dst);
  const auto* s8 = reinterpret_cast<const std::uint8_t*>(src);
  const std::size_t bytes = n * sizeof(Gf16);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, d8 + i, 8);
    std::memcpy(&s, s8 + i, 8);
    d ^= s;
    std::memcpy(d8 + i, &d, 8);
  }
  for (; i < bytes; ++i) d8[i] ^= s8[i];
}

void AxpyScalar(Gf16* dst, Gf16 coef, const Gf16* src, std::size_t n) {
  const Tables& t = GetTables();
  const unsigned lc = t.log_[coef];
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] != 0) dst[i] ^= t.exp_[lc + t.log_[src[i]]];
  }
}

void ScaleScalar(Gf16* data, Gf16 coef, std::size_t n) {
  const Tables& t = GetTables();
  const unsigned lc = t.log_[coef];
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != 0) data[i] = t.exp_[lc + t.log_[data[i]]];
  }
}

#if defined(PPR_GF16_X86)

bool Avx2Supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// Split-nibble product tables for one 16-bit coefficient: the operand
// v = n0 + (n1<<4) + (n2<<8) + (n3<<12), and multiplication
// distributes over that XOR decomposition, so
//   coef*v = T[0][n0] ^ T[1][n1] ^ T[2][n2] ^ T[3][n3],
// with each T[j][.] a 16-bit product split into a low-byte and a
// high-byte PSHUFB table.
struct Mul16Tables {
  std::uint8_t lo[4][16];
  std::uint8_t hi[4][16];
};

Mul16Tables BuildMul16Tables(Gf16 coef) {
  const Tables& t = GetTables();
  Mul16Tables m;
  for (unsigned nib = 0; nib < 4; ++nib) {
    for (unsigned v = 0; v < 16; ++v) {
      const Gf16 p = MulTab(t, coef, static_cast<Gf16>(v << (4 * nib)));
      m.lo[nib][v] = static_cast<std::uint8_t>(p & 0xFF);
      m.hi[nib][v] = static_cast<std::uint8_t>(p >> 8);
    }
  }
  return m;
}

// The loaded/broadcast form of Mul16Tables plus the constant masks the
// kernels share.
struct Mul16Vecs {
  __m256i lo[4];
  __m256i hi[4];
  __m256i nib;
  __m256i byte;
};

__attribute__((target("avx2"))) inline Mul16Vecs LoadMul16(Gf16 coef) {
  const Mul16Tables m = BuildMul16Tables(coef);
  Mul16Vecs v;
  for (unsigned j = 0; j < 4; ++j) {
    v.lo[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m.lo[j])));
    v.hi[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m.hi[j])));
  }
  v.nib = _mm256_set1_epi8(0x0F);
  v.byte = _mm256_set1_epi16(0x00FF);
  return v;
}

// coef * [a, b] for two vectors of 16 words each: deinterleave into a
// low-byte and a high-byte plane (PACKUSWB + lane fixup), four PSHUFB
// lookups per output plane, reinterleave (PUNPCK + lane fixup).
__attribute__((target("avx2"))) inline void Mul16Pair(const Mul16Vecs& v,
                                                      __m256i a, __m256i b,
                                                      __m256i* out_a,
                                                      __m256i* out_b) {
  const __m256i lo = _mm256_permute4x64_epi64(
      _mm256_packus_epi16(_mm256_and_si256(a, v.byte),
                          _mm256_and_si256(b, v.byte)),
      0xD8);
  const __m256i hi = _mm256_permute4x64_epi64(
      _mm256_packus_epi16(_mm256_srli_epi16(a, 8), _mm256_srli_epi16(b, 8)),
      0xD8);
  const __m256i n0 = _mm256_and_si256(lo, v.nib);
  const __m256i n1 = _mm256_and_si256(_mm256_srli_epi16(lo, 4), v.nib);
  const __m256i n2 = _mm256_and_si256(hi, v.nib);
  const __m256i n3 = _mm256_and_si256(_mm256_srli_epi16(hi, 4), v.nib);
  const __m256i plo = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(v.lo[0], n0),
                       _mm256_shuffle_epi8(v.lo[1], n1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(v.lo[2], n2),
                       _mm256_shuffle_epi8(v.lo[3], n3)));
  const __m256i phi = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(v.hi[0], n0),
                       _mm256_shuffle_epi8(v.hi[1], n1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(v.hi[2], n2),
                       _mm256_shuffle_epi8(v.hi[3], n3)));
  const __m256i r1 = _mm256_unpacklo_epi8(plo, phi);
  const __m256i r2 = _mm256_unpackhi_epi8(plo, phi);
  *out_a = _mm256_permute2x128_si256(r1, r2, 0x20);
  *out_b = _mm256_permute2x128_si256(r1, r2, 0x31);
}

__attribute__((target("avx2"))) void AxpyAvx2(Gf16* dst, Gf16 coef,
                                              const Gf16* src, std::size_t n) {
  const Mul16Vecs v = LoadMul16(coef);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 16));
    __m256i pa, pb;
    Mul16Pair(v, a, b, &pa, &pb);
    const __m256i da =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i db =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 16));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(da, pa));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 16),
                        _mm256_xor_si256(db, pb));
  }
  AxpyScalar(dst + i, coef, src + i, n - i);
}

__attribute__((target("avx2"))) void ScaleAvx2(Gf16* data, Gf16 coef,
                                               std::size_t n) {
  const Mul16Vecs v = LoadMul16(coef);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 16));
    __m256i pa, pb;
    Mul16Pair(v, a, b, &pa, &pb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i), pa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i + 16), pb);
  }
  ScaleScalar(data + i, coef, n - i);
}

// Fused butterflies: both symbols stream through the core once per
// call instead of once for the multiply and again for the XOR.
__attribute__((target("avx2"))) void ButterflyFwdAvx2(Gf16* x, Gf16* y,
                                                      Gf16 skew,
                                                      std::size_t n) {
  const Mul16Vecs v = LoadMul16(skew);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ya =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i yb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 16));
    __m256i pa, pb;
    Mul16Pair(v, ya, yb, &pa, &pb);
    const __m256i xa = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)), pa);
    const __m256i xb = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 16)), pb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), xa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i + 16), xb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_xor_si256(ya, xa));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i + 16),
                        _mm256_xor_si256(yb, xb));
  }
  for (; i < n; ++i) {
    x[i] ^= MulTab(GetTables(), skew, y[i]);
    y[i] ^= x[i];
  }
}

__attribute__((target("avx2"))) void ButterflyInvAvx2(Gf16* x, Gf16* y,
                                                      Gf16 skew,
                                                      std::size_t n) {
  const Mul16Vecs v = LoadMul16(skew);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ya = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
    const __m256i yb = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 16)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 16)));
    __m256i pa, pb;
    Mul16Pair(v, ya, yb, &pa, &pb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), ya);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i + 16), yb);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(x + i),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)), pa));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(x + i + 16),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 16)),
            pb));
  }
  for (; i < n; ++i) {
    y[i] ^= x[i];
    x[i] ^= MulTab(GetTables(), skew, y[i]);
  }
}

#endif  // PPR_GF16_X86

}  // namespace

Gf16 Gf16Exp(unsigned power) {
  assert(power < 2 * 65535);
  return GetTables().exp_[power];
}

unsigned Gf16Log(Gf16 a) {
  assert(a != 0);
  return GetTables().log_[a];
}

Gf16 Gf16Mul(Gf16 a, Gf16 b) { return MulTab(GetTables(), a, b); }

Gf16 Gf16Inv(Gf16 a) {
  assert(a != 0);
  const Tables& t = GetTables();
  return t.exp_[65535 - t.log_[a]];
}

Gf16 Gf16Div(Gf16 a, Gf16 b) {
  assert(b != 0);
  if (a == 0) return 0;
  const Tables& t = GetTables();
  return t.exp_[static_cast<unsigned>(t.log_[a]) + 65535 - t.log_[b]];
}

void Gf16Axpy(std::span<Gf16> dst, Gf16 coef, std::span<const Gf16> src) {
  const std::size_t n = std::min(dst.size(), src.size());
  if (n == 0 || coef == 0) return;
  if (coef == 1) {
    XorWords(dst.data(), src.data(), n);
    return;
  }
#if defined(PPR_GF16_X86)
  if (Avx2Supported() && n >= 32) {
    AxpyAvx2(dst.data(), coef, src.data(), n);
    return;
  }
#endif
  AxpyScalar(dst.data(), coef, src.data(), n);
}

void Gf16Scale(std::span<Gf16> data, Gf16 coef) {
  if (data.empty() || coef == 1) return;
  if (coef == 0) {
    std::memset(data.data(), 0, data.size() * sizeof(Gf16));
    return;
  }
#if defined(PPR_GF16_X86)
  if (Avx2Supported() && data.size() >= 32) {
    ScaleAvx2(data.data(), coef, data.size());
    return;
  }
#endif
  ScaleScalar(data.data(), coef, data.size());
}

void Gf16ButterflyFwd(std::span<Gf16> x, std::span<Gf16> y, Gf16 skew) {
  const std::size_t n = std::min(x.size(), y.size());
  if (skew == 0) {
    XorWords(y.data(), x.data(), n);
    return;
  }
#if defined(PPR_GF16_X86)
  if (Avx2Supported() && n >= 32) {
    ButterflyFwdAvx2(x.data(), y.data(), skew, n);
    return;
  }
#endif
  const Tables& t = GetTables();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] ^= MulTab(t, skew, y[i]);
    y[i] ^= x[i];
  }
}

void Gf16ButterflyInv(std::span<Gf16> x, std::span<Gf16> y, Gf16 skew) {
  const std::size_t n = std::min(x.size(), y.size());
  if (skew == 0) {
    XorWords(y.data(), x.data(), n);
    return;
  }
#if defined(PPR_GF16_X86)
  if (Avx2Supported() && n >= 32) {
    ButterflyInvAvx2(x.data(), y.data(), skew, n);
    return;
  }
#endif
  const Tables& t = GetTables();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] ^= x[i];
    x[i] ^= MulTab(t, skew, y[i]);
  }
}

namespace gf16_ref {

void Axpy(std::span<Gf16> dst, Gf16 coef, std::span<const Gf16> src) {
  const std::size_t n = std::min(dst.size(), src.size());
  const Tables& t = GetTables();
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= MulTab(t, coef, src[i]);
}

void Scale(std::span<Gf16> data, Gf16 coef) {
  const Tables& t = GetTables();
  for (auto& v : data) v = MulTab(t, coef, v);
}

}  // namespace gf16_ref

}  // namespace ppr::fec
