#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ppr {
namespace {

// splitmix64: seeds the xoshiro state from a single 64-bit value, per the
// generator authors' recommendation.
std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::Normal() {
  // Box-Muller; draws two uniforms per normal. u1 is kept away from zero
  // so the log is finite.
  double u1 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = UniformDouble();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

Rng Rng::Fork() {
  return Rng(Next());
}

}  // namespace ppr
