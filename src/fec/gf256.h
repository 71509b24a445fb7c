// GF(2^8) arithmetic for the network-coded repair path.
//
// The field is generated by the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D, the conventional Reed-Solomon field) with alpha = 2.
// Multiplication goes through compile-time log/exp tables; the hot
// operation is GfAxpy (dst ^= coef * src over a byte span), which is the
// inner loop of both RLNC encoding and Gaussian elimination.
//
// GfAxpy and GfScale dispatch at runtime to one kernel per instruction
// set. The GFNI kernel encodes the constant multiply as an 8x8 GF(2)
// bit-matrix, read from a table built at compile time, and runs one
// 256-bit GF2P8AFFINEQB per 32 products. The AVX2 (x86 without GFNI) and
// NEON (aarch64) kernels use the split-nibble multiply shape of
// ISA-L/moepgf: per coefficient, two 16-entry product tables (one for
// the low nibble, one for the high nibble) turn a byte multiply into
// two table shuffles and a XOR — PSHUFB on AVX2, TBL on NEON. The scalar
// row-table loop remains the portable fallback and the test reference,
// and coef 1 short-circuits to a word-wide XOR on every backend.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace ppr::fec {

inline constexpr unsigned kGfOrder = 256;
inline constexpr unsigned kGfPrimitivePoly = 0x11D;

// alpha^power for power in [0, 510); exponents at or above 255 wrap, so
// GfExp(GfLog(a) + GfLog(b)) needs no modular reduction.
std::uint8_t GfExp(unsigned power);

// Discrete log base alpha; a must be nonzero.
std::uint8_t GfLog(std::uint8_t a);

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b);

// Multiplicative inverse; a must be nonzero.
std::uint8_t GfInv(std::uint8_t a);

// a / b; b must be nonzero.
std::uint8_t GfDiv(std::uint8_t a, std::uint8_t b);

// ------------------------------------------------------- kernel dispatch

// The GfAxpy/GfScale kernel backends. kScalar always exists; a SIMD
// backend is available when the target architecture compiles it AND the
// running CPU reports the feature (cpuid on x86; NEON is baseline on
// aarch64).
enum class GfImpl : std::uint8_t {
  kScalar = 0,
  kAvx2,
  kNeon,
  // GF2P8AFFINEQB constant-matrix multiply; needs gfni + avx2.
  kGfni,
};

// Sizes per-backend arrays (the sim's GF accounting), so it must track
// the enum.
inline constexpr std::size_t kGfImplCount = 4;
static_assert(static_cast<std::size_t>(GfImpl::kGfni) + 1 == kGfImplCount);

std::string_view GfImplName(GfImpl impl);
std::optional<GfImpl> GfImplFromName(std::string_view name);

// Compiled in and supported by this CPU.
bool GfImplAvailable(GfImpl impl);

// Every available backend, kScalar first.
std::vector<GfImpl> GfAvailableImpls();

// The backend GfAxpy/GfScale currently dispatch to. Selected once at
// first use: the fastest available (gfni > avx2 > neon > scalar),
// unless the PPR_GF256_FORCE_IMPL environment variable names one of
// scalar/avx2/neon/gfni — an unknown or unavailable forced backend
// aborts so a CI pin can never silently fall through to the wrong
// kernel.
GfImpl GfActiveImpl();

// Switches the dispatched backend at runtime (tests and benchmark
// sweeps). Returns false and leaves the selection unchanged when `impl`
// is unavailable. Not synchronized against concurrent GfAxpy callers.
bool GfSetImpl(GfImpl impl);

// RAII backend pin for tests and benchmark sweeps: switches to `impl`
// and restores the previous selection on destruction (also on early
// exit, so a failing assertion cannot leak the pin into later tests).
class GfImplScope {
 public:
  explicit GfImplScope(GfImpl impl)
      : saved_(GfActiveImpl()), ok_(GfSetImpl(impl)) {}
  ~GfImplScope() { GfSetImpl(saved_); }
  GfImplScope(const GfImplScope&) = delete;
  GfImplScope& operator=(const GfImplScope&) = delete;

  // False when `impl` was unavailable and the selection is unchanged.
  bool ok() const { return ok_; }

 private:
  GfImpl saved_;
  bool ok_;
};

// ---------------------------------------------------------- accounting

// Work the calling thread has routed through a backend: entry-point
// calls (GfAxpy / one GfAxpyN term batch / GfScale) and bytes swept.
struct GfOpStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  GfOpStats operator-(const GfOpStats& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
};

// Cumulative GfOpStats for `impl`, THIS thread only — counters are
// thread-local so the hot path stays two plain increments and a reader
// never races a writer. Callers wanting a scoped measurement (e.g. the
// sim attributing GF work to one link) take a before/after delta on the
// thread that does the work. All work in one entry point is attributed
// to the backend active at the call, including the coef==1 XOR and
// log-domain tails it short-circuits to. Always zero under PPR_OBS_OFF.
GfOpStats GfThreadStatsFor(GfImpl impl);

// ------------------------------------------------------------ operations

// dst[i] ^= coef * src[i]. The spans must have equal length (addition
// in GF(2^8) is XOR, so this is the saxpy of the field); a mismatch
// asserts in debug builds and clamps to the shorter span otherwise —
// neither span is ever read or written past its end.
void GfAxpy(std::span<std::uint8_t> dst, std::uint8_t coef,
            std::span<const std::uint8_t> src);

// One term of a batched axpy: dst ^= coef * src.
struct GfTerm {
  std::uint8_t coef = 0;
  std::span<const std::uint8_t> src;
};

// dst ^= sum over terms of coef * src — one repair combination (or one
// elimination sweep) in a single call. Equivalent to GfAxpy per term,
// but walks dst in L1-resident blocks so the accumulator streams
// through cache once per block instead of once per term.
void GfAxpyN(std::span<std::uint8_t> dst, std::span<const GfTerm> terms);

// data[i] *= coef, in place.
void GfScale(std::span<std::uint8_t> data, std::uint8_t coef);

}  // namespace ppr::fec
