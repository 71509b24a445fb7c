#include "fec/gf256.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define PPR_GF256_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define PPR_GF256_ARM 1
#include <arm_neon.h>
#endif

namespace ppr::fec {
namespace {

struct Tables {
  // exp_ is doubled so log-domain sums index it without reduction.
  std::uint8_t exp_[510] = {};
  std::uint8_t log_[256] = {};
};

constexpr Tables BuildTables() {
  Tables t;
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    t.exp_[i] = static_cast<std::uint8_t>(x);
    t.exp_[i + 255] = static_cast<std::uint8_t>(x);
    t.log_[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kGfPrimitivePoly;
  }
  return t;
}

constexpr Tables kTables = BuildTables();

constexpr std::uint8_t MulTab(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kTables.exp_[kTables.log_[a] + kTables.log_[b]];
}

// Product of `coef` with every byte value; the scalar axpy row table.
void BuildRow(std::uint8_t coef, std::uint8_t row[256]) {
  row[0] = 0;
  const unsigned lc = kTables.log_[coef];
  for (unsigned v = 1; v < 256; ++v) {
    row[v] = kTables.exp_[lc + kTables.log_[v]];
  }
}

// Split-nibble product tables: coef * v == lo[v & 0xF] ^ hi[v >> 4],
// because multiplication distributes over the XOR that sums the two
// nibble contributions. 16 entries each fits one PSHUFB/TBL register.
struct NibbleTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};

NibbleTables BuildNibbleTables(std::uint8_t coef) {
  NibbleTables t;
  for (unsigned v = 0; v < 16; ++v) {
    t.lo[v] = MulTab(coef, static_cast<std::uint8_t>(v));
    t.hi[v] = MulTab(coef, static_cast<std::uint8_t>(v << 4));
  }
  return t;
}

// coef == 1 on every backend: dst ^= src word-wide. The loads go
// through memcpy — the spans carry no alignment guarantee, so a
// reinterpret_cast<uint64_t*> load would be undefined behavior.
void XorBytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// Tail shape shared by every backend: below table-build granularity the
// log-domain multiply wins (matters for the default 8-byte FEC symbols).
void AxpyLogDomain(std::uint8_t* dst, std::uint8_t coef,
                   const std::uint8_t* src, std::size_t n) {
  const unsigned lc = kTables.log_[coef];
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] != 0) dst[i] ^= kTables.exp_[lc + kTables.log_[src[i]]];
  }
}

void ScaleLogDomain(std::uint8_t* data, std::uint8_t coef, std::size_t n) {
  const unsigned lc = kTables.log_[coef];
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = data[i] == 0
                  ? std::uint8_t{0}
                  : kTables.exp_[lc + kTables.log_[data[i]]];
  }
}

// ----------------------------------------------------------- kernels
// All kernels take coef not in {0, 1}: the dispatcher has already
// short-circuited the no-op and XOR cases.

void AxpyScalar(std::uint8_t* dst, std::uint8_t coef, const std::uint8_t* src,
                std::size_t n) {
  if (n < 64) {
    AxpyLogDomain(dst, coef, src, n);
    return;
  }
  std::uint8_t row[256];
  BuildRow(coef, row);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void ScaleScalar(std::uint8_t* data, std::uint8_t coef, std::size_t n) {
  if (n < 64) {
    ScaleLogDomain(data, coef, n);
    return;
  }
  std::uint8_t row[256];
  BuildRow(coef, row);
  for (std::size_t i = 0; i < n; ++i) data[i] = row[data[i]];
}

#if defined(PPR_GF256_X86)

__attribute__((target("avx2"))) void AxpyAvx2(std::uint8_t* dst,
                                              std::uint8_t coef,
                                              const std::uint8_t* src,
                                              std::size_t n) {
  // Below one 32-byte vector the log domain wins (and matches what the
  // pre-vectorization scalar path did for these sizes).
  if (n < 32) {
    AxpyLogDomain(dst, coef, src, n);
    return;
  }
  const NibbleTables t = BuildNibbleTables(coef);
  // PSHUFB shuffles per 128-bit lane, so the table is duplicated into
  // both lanes.
  const __m256i vlo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i vhi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(vlo, _mm256_and_si256(s, nib)),
        _mm256_shuffle_epi8(vhi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), nib)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  AxpyLogDomain(dst + i, coef, src + i, n - i);
}

__attribute__((target("avx2"))) void ScaleAvx2(std::uint8_t* data,
                                               std::uint8_t coef,
                                               std::size_t n) {
  if (n < 32) {
    ScaleLogDomain(data, coef, n);
    return;
  }
  const NibbleTables t = BuildNibbleTables(coef);
  const __m256i vlo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i vhi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(vlo, _mm256_and_si256(s, nib)),
        _mm256_shuffle_epi8(vhi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), nib)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i), p);
  }
  ScaleLogDomain(data + i, coef, n - i);
}

// The GFNI constant-multiply matrix. GF2P8AFFINEQB computes, per
// destination byte, bit i = parity(matrix.byte[7-i] & src.byte) — an
// arbitrary GF(2)-linear map of the byte. Multiplication by a constant
// c is such a map (over ANY degree-8 polynomial basis, not just the
// instruction's own 0x11B reduction, which only its MULB sibling
// hard-codes): column j of the bit-matrix is c * 2^j in this field's
// 0x11D basis, so row i collects bit i of each column product.
constexpr std::uint64_t GfniMatrix(std::uint8_t coef) {
  std::uint8_t row[8] = {};
  for (unsigned j = 0; j < 8; ++j) {
    const std::uint8_t col = MulTab(coef, static_cast<std::uint8_t>(1u << j));
    for (unsigned i = 0; i < 8; ++i) {
      if (col & (1u << i)) row[i] |= static_cast<std::uint8_t>(1u << j);
    }
  }
  std::uint64_t m = 0;
  for (unsigned i = 0; i < 8; ++i) {
    m |= static_cast<std::uint64_t>(row[i]) << (8 * (7 - i));
  }
  return m;
}

constexpr std::array<std::uint64_t, 256> BuildGfniMatrices() {
  std::array<std::uint64_t, 256> t{};
  for (unsigned c = 0; c < 256; ++c) {
    t[c] = GfniMatrix(static_cast<std::uint8_t>(c));
  }
  return t;
}

// All 256 matrices, built at compile time: a kernel call reads one.
constexpr std::array<std::uint64_t, 256> kGfniMatrices = BuildGfniMatrices();

__attribute__((target("gfni,avx2"))) void AxpyGfni(std::uint8_t* dst,
                                                   std::uint8_t coef,
                                                   const std::uint8_t* src,
                                                   std::size_t n) {
  if (n < 32) {
    AxpyLogDomain(dst, coef, src, n);
    return;
  }
  const __m256i m =
      _mm256_set1_epi64x(static_cast<long long>(kGfniMatrices[coef]));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i p = _mm256_gf2p8affine_epi64_epi8(s, m, 0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  AxpyLogDomain(dst + i, coef, src + i, n - i);
}

__attribute__((target("gfni,avx2"))) void ScaleGfni(std::uint8_t* data,
                                                    std::uint8_t coef,
                                                    std::size_t n) {
  if (n < 32) {
    ScaleLogDomain(data, coef, n);
    return;
  }
  const __m256i m =
      _mm256_set1_epi64x(static_cast<long long>(kGfniMatrices[coef]));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i),
                        _mm256_gf2p8affine_epi64_epi8(s, m, 0));
  }
  ScaleLogDomain(data + i, coef, n - i);
}

#endif  // PPR_GF256_X86

#if defined(PPR_GF256_ARM)

// Per-byte shift: vshrq_n_u8 never smears bits across byte boundaries,
// so the high nibble needs no mask.
void AxpyNeon(std::uint8_t* dst, std::uint8_t coef, const std::uint8_t* src,
              std::size_t n) {
  if (n < 16) {
    AxpyLogDomain(dst, coef, src, n);
    return;
  }
  const NibbleTables t = BuildNibbleTables(coef);
  const uint8x16_t vlo = vld1q_u8(t.lo);
  const uint8x16_t vhi = vld1q_u8(t.hi);
  const uint8x16_t nib = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t d = vld1q_u8(dst + i);
    const uint8x16_t p = veorq_u8(vqtbl1q_u8(vlo, vandq_u8(s, nib)),
                                  vqtbl1q_u8(vhi, vshrq_n_u8(s, 4)));
    vst1q_u8(dst + i, veorq_u8(d, p));
  }
  AxpyLogDomain(dst + i, coef, src + i, n - i);
}

void ScaleNeon(std::uint8_t* data, std::uint8_t coef, std::size_t n) {
  if (n < 16) {
    ScaleLogDomain(data, coef, n);
    return;
  }
  const NibbleTables t = BuildNibbleTables(coef);
  const uint8x16_t vlo = vld1q_u8(t.lo);
  const uint8x16_t vhi = vld1q_u8(t.hi);
  const uint8x16_t nib = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(data + i);
    const uint8x16_t p = veorq_u8(vqtbl1q_u8(vlo, vandq_u8(s, nib)),
                                  vqtbl1q_u8(vhi, vshrq_n_u8(s, 4)));
    vst1q_u8(data + i, p);
  }
  ScaleLogDomain(data + i, coef, n - i);
}

#endif  // PPR_GF256_ARM

// ----------------------------------------------------------- dispatch

using AxpyFn = void (*)(std::uint8_t*, std::uint8_t, const std::uint8_t*,
                        std::size_t);
using ScaleFn = void (*)(std::uint8_t*, std::uint8_t, std::size_t);

struct Backend {
  AxpyFn axpy = nullptr;
  ScaleFn scale = nullptr;
};

std::optional<Backend> CompiledBackend(GfImpl impl) {
  switch (impl) {
    case GfImpl::kScalar:
      return Backend{AxpyScalar, ScaleScalar};
#if defined(PPR_GF256_X86)
    case GfImpl::kAvx2:
      return Backend{AxpyAvx2, ScaleAvx2};
    case GfImpl::kGfni:
      return Backend{AxpyGfni, ScaleGfni};
#endif
#if defined(PPR_GF256_ARM)
    case GfImpl::kNeon:
      return Backend{AxpyNeon, ScaleNeon};
#endif
    default:
      return std::nullopt;
  }
}

bool CpuSupports(GfImpl impl) {
  switch (impl) {
    case GfImpl::kScalar:
      return true;
#if defined(PPR_GF256_X86)
    case GfImpl::kAvx2:
      return __builtin_cpu_supports("avx2");
    case GfImpl::kGfni:
      return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2");
#endif
#if defined(PPR_GF256_ARM)
    case GfImpl::kNeon:
      return true;  // NEON is baseline on aarch64.
#endif
    default:
      return false;
  }
}

constexpr GfImpl kAllImpls[] = {GfImpl::kScalar, GfImpl::kAvx2, GfImpl::kNeon,
                                 GfImpl::kGfni};
static_assert(std::size(kAllImpls) == kGfImplCount);

struct Active {
  GfImpl impl;
  Backend backend;
};

Active& ActiveState() {
  static Active active = [] {
    GfImpl impl = GfImpl::kScalar;
    for (const GfImpl cand : {GfImpl::kGfni, GfImpl::kAvx2, GfImpl::kNeon}) {
      if (GfImplAvailable(cand)) {
        impl = cand;
        break;
      }
    }
    if (const char* force = std::getenv("PPR_GF256_FORCE_IMPL")) {
      const auto forced = GfImplFromName(force);
      if (!forced || !GfImplAvailable(*forced)) {
        std::fprintf(stderr,
                     "PPR_GF256_FORCE_IMPL=%s: unknown or unavailable GF(256) "
                     "backend on this host\n",
                     force);
        std::abort();
      }
      impl = *forced;
    }
    return Active{impl, *CompiledBackend(impl)};
  }();
  return active;
}

// Per-thread, per-backend op counters: plain (non-atomic) uint64s are
// enough because only the owning thread reads or writes them.
#if !defined(PPR_OBS_OFF)

struct GfThreadCounters {
  std::uint64_t calls[kGfImplCount] = {};
  std::uint64_t bytes[kGfImplCount] = {};
};

GfThreadCounters& ThreadCounters() {
  static thread_local GfThreadCounters counters;
  return counters;
}

inline void CountOp(GfImpl impl, std::uint64_t bytes) {
  GfThreadCounters& c = ThreadCounters();
  const auto i = static_cast<std::size_t>(impl);
  ++c.calls[i];
  c.bytes[i] += bytes;
}

#else

inline void CountOp(GfImpl, std::uint64_t) {}

#endif  // PPR_OBS_OFF

}  // namespace

GfOpStats GfThreadStatsFor(GfImpl impl) {
#if !defined(PPR_OBS_OFF)
  const GfThreadCounters& c = ThreadCounters();
  const auto i = static_cast<std::size_t>(impl);
  return {c.calls[i], c.bytes[i]};
#else
  (void)impl;
  return {};
#endif
}

std::uint8_t GfExp(unsigned power) {
  assert(power < 510);
  return kTables.exp_[power];
}

std::uint8_t GfLog(std::uint8_t a) {
  assert(a != 0);
  return kTables.log_[a];
}

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b) { return MulTab(a, b); }

std::uint8_t GfInv(std::uint8_t a) {
  assert(a != 0);
  return kTables.exp_[255 - kTables.log_[a]];
}

std::uint8_t GfDiv(std::uint8_t a, std::uint8_t b) {
  assert(b != 0);
  if (a == 0) return 0;
  return kTables.exp_[kTables.log_[a] + 255 - kTables.log_[b]];
}

std::string_view GfImplName(GfImpl impl) {
  switch (impl) {
    case GfImpl::kScalar:
      return "scalar";
    case GfImpl::kAvx2:
      return "avx2";
    case GfImpl::kNeon:
      return "neon";
    case GfImpl::kGfni:
      return "gfni";
  }
  return "unknown";
}

std::optional<GfImpl> GfImplFromName(std::string_view name) {
  for (const GfImpl impl : kAllImpls) {
    if (name == GfImplName(impl)) return impl;
  }
  return std::nullopt;
}

bool GfImplAvailable(GfImpl impl) {
  return CompiledBackend(impl).has_value() && CpuSupports(impl);
}

std::vector<GfImpl> GfAvailableImpls() {
  std::vector<GfImpl> impls;
  for (const GfImpl impl : kAllImpls) {
    if (GfImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

GfImpl GfActiveImpl() { return ActiveState().impl; }

bool GfSetImpl(GfImpl impl) {
  if (!GfImplAvailable(impl)) return false;
  ActiveState() = Active{impl, *CompiledBackend(impl)};
  return true;
}

void GfAxpy(std::span<std::uint8_t> dst, std::uint8_t coef,
            std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  const std::size_t n = std::min(dst.size(), src.size());
  if (n == 0 || coef == 0) return;
  CountOp(ActiveState().impl, n);
  if (coef == 1) {
    XorBytes(dst.data(), src.data(), n);
    return;
  }
  ActiveState().backend.axpy(dst.data(), coef, src.data(), n);
}

void GfAxpyN(std::span<std::uint8_t> dst, std::span<const GfTerm> terms) {
  const Active& active = ActiveState();
  const Backend& backend = active.backend;
  std::uint64_t counted = 0;
  for (const GfTerm& term : terms) {
    if (term.coef != 0) counted += std::min(term.src.size(), dst.size());
  }
  if (counted > 0) CountOp(active.impl, counted);
  // Walk dst in L1-resident blocks so one repair burst streams the
  // accumulator through cache once per block rather than once per term.
  // Worth it only for the vector kernels, whose per-block setup is one
  // matrix load (GFNI) or 32 log/exp lookups; the scalar fallback
  // rebuilds a 256-entry row per (term, block), so it keeps the
  // one-pass-per-term shape.
  constexpr std::size_t kBlock = 4096;
  const std::size_t block =
      active.impl == GfImpl::kScalar ? dst.size() : kBlock;
  for (std::size_t off = 0; off < dst.size(); off += block) {
    const std::size_t blk = std::min(block, dst.size() - off);
    for (const GfTerm& term : terms) {
      assert(term.src.size() == dst.size());
      if (term.coef == 0 || term.src.size() <= off) continue;
      const std::size_t n = std::min(blk, term.src.size() - off);
      if (term.coef == 1) {
        XorBytes(dst.data() + off, term.src.data() + off, n);
      } else {
        backend.axpy(dst.data() + off, term.coef, term.src.data() + off, n);
      }
    }
  }
}

void GfScale(std::span<std::uint8_t> data, std::uint8_t coef) {
  if (coef == 1 || data.empty()) return;
  CountOp(ActiveState().impl, data.size());
  if (coef == 0) {
    std::memset(data.data(), 0, data.size());
    return;
  }
  ActiveState().backend.scale(data.data(), coef, data.size());
}

}  // namespace ppr::fec
