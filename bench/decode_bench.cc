// Decode-complexity scoreboard: the GF(2^16) FFT Reed-Solomon erasure
// decoder against RLNC Gaussian elimination at k in {64, 256, 1024},
// and the fused one-pass [coefs | data] elimination (RlncDecoder on the
// shared fec::GaussJordanInsert) against a faithful two-pass replica
// (separate coefficient and payload sweeps — the pre-fusion layout).
// The two sides of each comparison are timed in alternating rounds.
// Both comparisons are acceptance gates, enforced by this binary's
// exit code:
//
//   * RS erasure decode >= 4x RLNC Gaussian elimination at k = 1024,
//     1 KiB symbols (the O(k log k) vs O(k^2) win),
//   * fused elimination >= 1.2x the two-pass replica at k = 256,
//     64 B symbols (the coefficient-heavy regime fusion targets).
//
// Modes:
//   (default)        full sweep, human-readable table, gates enforced.
//   --json <path>    full sweep; also writes flat JSON records
//                    ({bench, kernel, k, symbol_bytes, mb_per_s} plus
//                    ratio records) for bench/check_regression.py and
//                    the committed BENCH_decode.json trajectory.
//   --smoke          reduced shapes (k <= 256), single-shot timing,
//                    relaxed gates — a CI bit-rot guard that still
//                    verifies decoded symbols bit-exactly on every
//                    path, cheap enough for Debug/ASan legs.
//
// Every measured decode is verified against the ground-truth block
// before its time is accepted; a wrong symbol fails the run harder
// than any ratio could.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"
#include "fec/rlnc.h"

namespace {

using namespace ppr;

std::vector<std::uint8_t> RandomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return out;
}

std::vector<std::vector<std::uint8_t>> RandomBlock(Rng& rng, std::size_t n,
                                                   std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> block(n);
  for (auto& s : block) s = RandomBytes(rng, bytes);
  return block;
}

// Seconds per rep of `a` and of `b`, the two sides of one gated ratio.
// Each side's batch grows until the timed region dwarfs clock
// granularity; then the sides run in alternating rounds and each keeps
// its best (least-disturbed) batch, so a host whose speed drifts during
// the run slows both sides alike rather than whichever ran second.
// Smoke mode times a single rep of each — good enough for a bit-rot
// guard, far too noisy for the strict gates (which smoke relaxes
// accordingly).
template <typename FnA, typename FnB>
std::pair<double, double> PairedSecsPerRep(FnA&& a, FnB&& b, bool smoke) {
  using Clock = std::chrono::steady_clock;
  const auto secs_per_rep = [](auto& rep, std::size_t reps) {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) rep();
    return std::chrono::duration<double>(Clock::now() - begin).count() /
           static_cast<double>(reps);
  };
  a();  // warm caches and field tables
  b();
  if (smoke) return {secs_per_rep(a, 1), secs_per_rep(b, 1)};
  const auto batch = [&](auto& rep) {
    std::size_t reps = 1;
    while (reps < (1u << 20) &&
           secs_per_rep(rep, reps) * static_cast<double>(reps) < 0.05) {
      reps *= 4;
    }
    return reps;
  };
  const std::size_t reps_a = batch(a);
  const std::size_t reps_b = batch(b);
  constexpr int kRounds = 5;
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int round = 0; round < kRounds; ++round) {
    // One untimed rep ahead of each batch, so neither side pays for the
    // cache state the other side's batch left behind.
    a();
    best_a = std::min(best_a, secs_per_rep(a, reps_a));
    b();
    best_b = std::min(best_b, secs_per_rep(b, reps_b));
  }
  return {best_a, best_b};
}

double Mbps(std::size_t bytes, double secs) {
  return static_cast<double>(bytes) / secs / 1e6;
}

[[noreturn]] void FailCorrectness(const char* what) {
  std::fprintf(stderr, "decode_bench: CORRECTNESS FAILURE: %s\n", what);
  std::exit(2);
}

// ------------------------------------------------- RLNC vs RS erasure decode
//
// Identical task for both codecs: k source symbols, the first k/2
// erased, recovered from k/2 repair/parity symbols. RLNC pays dense
// Gaussian elimination (O(e^2) row sweeps); RS pays three size-2K
// additive FFTs (O(K log K)). Throughput is normalized to the full
// block (k * symbol_bytes per decode) so the RS/RLNC ratio is exactly
// the decode-time ratio.

struct DecodeResult {
  double rlnc_mbps = 0.0;
  double rs_mbps = 0.0;
};

DecodeResult DecodeSweep(std::size_t k, std::size_t bytes, bool smoke) {
  const std::size_t erased = k / 2;

  Rng rlnc_rng(701);
  const auto rlnc_block = RandomBlock(rlnc_rng, k, bytes);
  const fec::RlncEncoder rlnc_encoder(rlnc_block);
  std::vector<fec::RepairSymbol> repairs;
  for (std::uint32_t s = 1; s <= erased + 4; ++s) {
    repairs.push_back(rlnc_encoder.MakeRepair(s));
  }
  fec::RlncDecoder rlnc(k, bytes);
  bool rlnc_verified = false;
  const auto rlnc_rep = [&] {
    rlnc.Reset();
    for (std::size_t i = erased; i < k; ++i) rlnc.AddSource(i, rlnc_block[i]);
    std::size_t r = 0;
    while (!rlnc.Complete() && r < repairs.size()) rlnc.AddRepair(repairs[r++]);
    if (!rlnc.Complete()) FailCorrectness("RLNC decode incomplete");
    if (!rlnc_verified) {
      rlnc_verified = true;
      for (std::size_t i = 0; i < erased; ++i) {
        const auto sym = rlnc.Symbol(i);
        if (!std::equal(sym.begin(), sym.end(), rlnc_block[i].begin())) {
          FailCorrectness("RLNC recovered symbol mismatch");
        }
      }
    }
  };

  Rng rs_rng(702);
  const auto rs_block = RandomBlock(rs_rng, k, bytes);
  fec::ReedSolomonEncoder rs_encoder(k, erased, bytes);
  for (std::size_t i = 0; i < k; ++i) rs_encoder.SetSource(i, rs_block[i]);
  rs_encoder.Finish();
  fec::ReedSolomonDecoder rs(k, erased, bytes);
  bool rs_verified = false;
  const auto rs_rep = [&] {
    rs.Reset();
    for (std::size_t i = erased; i < k; ++i) rs.AddSourceSpan(i, rs_block[i]);
    for (std::size_t j = 0; j < erased; ++j) {
      rs.AddParitySpan(j, rs_encoder.Parity(j));
    }
    if (!rs.CanDecode()) FailCorrectness("RS decode short of rank");
    rs.Decode();
    if (!rs_verified) {
      rs_verified = true;
      for (std::size_t i = 0; i < erased; ++i) {
        const auto sym = rs.Symbol(i);
        if (!std::equal(sym.begin(), sym.end(), rs_block[i].begin())) {
          FailCorrectness("RS recovered symbol mismatch");
        }
      }
    }
  };

  const auto [rlnc_secs, rs_secs] = PairedSecsPerRep(rlnc_rep, rs_rep, smoke);
  return {Mbps(k * bytes, rlnc_secs), Mbps(k * bytes, rs_secs)};
}

// ----------------------------------------------- fused vs two-pass sweep
//
// The two-pass replica is the pre-fusion RlncDecoder: coefficient
// vector and payload stored separately, so every elimination step is
// two GfAxpy dispatches (and pivot normalization two GfScale calls)
// instead of one pass over a contiguous [coefs | data] row. Both
// decoders consume the same seed-expanded dense equations and must
// produce bit-identical symbols.

class TwoPassDecoder {
 public:
  TwoPassDecoder(std::size_t n, std::size_t bytes)
      : n_(n), bytes_(bytes), pivot_(n) {}

  void Reset() {
    for (auto& p : pivot_) p.reset();
    rank_ = 0;
  }
  bool Complete() const { return rank_ == n_; }

  bool AddEquation(std::vector<std::uint8_t> coefs,
                   std::vector<std::uint8_t> data) {
    // Forward sweep: two GfAxpy calls per already-placed pivot.
    for (std::size_t col = 0; col < n_; ++col) {
      const std::uint8_t c = coefs[col];
      if (c == 0 || !pivot_[col].has_value()) continue;
      fec::GfAxpy(coefs, c, pivot_[col]->coefs);
      fec::GfAxpy(data, c, pivot_[col]->data);
    }
    std::size_t lead = n_;
    for (std::size_t col = 0; col < n_; ++col) {
      if (coefs[col] != 0) {
        lead = col;
        break;
      }
    }
    if (lead == n_) return false;
    const std::uint8_t inv = fec::GfInv(coefs[lead]);
    fec::GfScale(coefs, inv);
    fec::GfScale(data, inv);
    // Back-elimination into every existing row: two more passes each.
    for (std::size_t col = 0; col < n_; ++col) {
      if (!pivot_[col].has_value()) continue;
      const std::uint8_t c = pivot_[col]->coefs[lead];
      if (c == 0) continue;
      fec::GfAxpy(pivot_[col]->coefs, c, coefs);
      fec::GfAxpy(pivot_[col]->data, c, data);
    }
    pivot_[lead] = Row{std::move(coefs), std::move(data)};
    ++rank_;
    return true;
  }

  const std::vector<std::uint8_t>& Symbol(std::size_t i) const {
    return pivot_[i]->data;
  }

 private:
  struct Row {
    std::vector<std::uint8_t> coefs;
    std::vector<std::uint8_t> data;
  };
  std::size_t n_, bytes_, rank_ = 0;
  std::vector<std::optional<Row>> pivot_;
};

struct ElimResult {
  double fused_mbps = 0.0;
  double twopass_mbps = 0.0;
};

ElimResult ElimSweep(std::size_t k, std::size_t bytes, bool smoke) {
  Rng rng(703);
  const auto block = RandomBlock(rng, k, bytes);
  const fec::RlncEncoder encoder(block);
  // A pure dense solve: every symbol erased, k + slack dense equations.
  std::vector<fec::RepairSymbol> repairs;
  for (std::uint32_t s = 1; s <= k + 4; ++s) {
    repairs.push_back(encoder.MakeRepair(s));
  }

  fec::RlncDecoder fused(k, bytes);
  const auto fused_rep = [&] {
    fused.Reset();
    std::size_t r = 0;
    while (!fused.Complete() && r < repairs.size()) {
      fused.AddRepair(repairs[r++]);
    }
    if (!fused.Complete()) FailCorrectness("fused elimination incomplete");
  };
  TwoPassDecoder twopass(k, bytes);
  const auto twopass_rep = [&] {
    twopass.Reset();
    std::size_t r = 0;
    while (!twopass.Complete() && r < repairs.size()) {
      twopass.AddEquation(fec::RepairCoefficients(repairs[r].seed, k),
                          repairs[r].data);
      ++r;
    }
    if (!twopass.Complete()) FailCorrectness("two-pass elimination incomplete");
  };
  const auto [fused_secs, twopass_secs] =
      PairedSecsPerRep(fused_rep, twopass_rep, smoke);
  const ElimResult out = {Mbps(k * bytes, fused_secs),
                          Mbps(k * bytes, twopass_secs)};

  // Both eliminators must agree with the block bit-exactly.
  for (std::size_t i = 0; i < k; ++i) {
    const auto sym = fused.Symbol(i);
    if (!std::equal(sym.begin(), sym.end(), block[i].begin()) ||
        twopass.Symbol(i) != block[i]) {
      FailCorrectness("fused/two-pass symbol mismatch");
    }
  }
  return out;
}

// ---------------------------------------------------------------- driver

int Run(bool smoke, const std::string& json_path) {
  const std::string active(fec::GfImplName(fec::GfActiveImpl()));
  std::fprintf(stderr, "decode_bench: gf256 backend = %s%s\n", active.c_str(),
               smoke ? " (smoke)" : "");
  std::vector<bench::JsonRecord> records;
  std::vector<std::string> failures;

  const std::vector<std::size_t> ks =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 256, 1024};
  const std::size_t bytes = smoke ? 256 : 1024;
  double gated_ratio = 0.0;
  std::size_t gated_k = 0;
  for (const std::size_t k : ks) {
    const DecodeResult decode = DecodeSweep(k, bytes, smoke);
    const double rlnc = decode.rlnc_mbps;
    const double rs = decode.rs_mbps;
    const double ratio = rs / rlnc;
    std::fprintf(stderr,
                 "k=%4zu  %4zu B  RlncDecode %9.1f MB/s  RsDecode %9.1f MB/s"
                 "  rs/rlnc %6.2fx\n",
                 k, bytes, rlnc, rs, ratio);
    records.push_back({{"kernel", std::string("RlncDecode")},
                       {"k", static_cast<std::int64_t>(k)},
                       {"symbol_bytes", static_cast<std::int64_t>(bytes)},
                       {"mb_per_s", rlnc}});
    records.push_back({{"kernel", std::string("RsDecode")},
                       {"k", static_cast<std::int64_t>(k)},
                       {"symbol_bytes", static_cast<std::int64_t>(bytes)},
                       {"mb_per_s", rs}});
    records.push_back({{"kernel", std::string("RsOverRlnc")},
                       {"k", static_cast<std::int64_t>(k)},
                       {"symbol_bytes", static_cast<std::int64_t>(bytes)},
                       {"ratio", ratio}});
    gated_ratio = ratio;
    gated_k = k;
  }
  // Gate on the largest k measured: 4x at k = 1024 (the acceptance
  // criterion); smoke only proves RS is not slower at k = 256.
  const double rs_floor = smoke ? 1.0 : 4.0;
  if (gated_ratio < rs_floor) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "RS decode %.2fx RLNC at k=%zu: below the %.1fx floor",
                  gated_ratio, gated_k, rs_floor);
    failures.emplace_back(buf);
  }

  const std::size_t elim_k = 256;
  const std::size_t elim_bytes = 64;
  const ElimResult elim = ElimSweep(elim_k, elim_bytes, smoke);
  const double elim_ratio = elim.fused_mbps / elim.twopass_mbps;
  std::fprintf(stderr,
               "k=%4zu  %4zu B  ElimTwoPass %8.1f MB/s  ElimFused %8.1f MB/s"
               "  fused/two-pass %5.2fx\n",
               elim_k, elim_bytes, elim.twopass_mbps, elim.fused_mbps,
               elim_ratio);
  records.push_back({{"kernel", std::string("ElimFused")},
                     {"k", static_cast<std::int64_t>(elim_k)},
                     {"symbol_bytes", static_cast<std::int64_t>(elim_bytes)},
                     {"mb_per_s", elim.fused_mbps}});
  records.push_back({{"kernel", std::string("ElimTwoPass")},
                     {"k", static_cast<std::int64_t>(elim_k)},
                     {"symbol_bytes", static_cast<std::int64_t>(elim_bytes)},
                     {"mb_per_s", elim.twopass_mbps}});
  records.push_back({{"kernel", std::string("FusedOverTwoPass")},
                     {"k", static_cast<std::int64_t>(elim_k)},
                     {"symbol_bytes", static_cast<std::int64_t>(elim_bytes)},
                     {"ratio", elim_ratio}});
  const double elim_floor = smoke ? 0.9 : 1.2;
  if (elim_ratio < elim_floor) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "fused elimination %.2fx two-pass: below the %.2fx floor",
                  elim_ratio, elim_floor);
    failures.emplace_back(buf);
  }

  if (!json_path.empty()) {
    const bench::JsonRecord header = {
        {"bench", std::string("decode_bench")}, {"active_impl", active}};
    if (!bench::WriteJsonReport(json_path, header, "results", records)) {
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  for (const auto& msg : failures) {
    std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  }
  if (failures.empty()) {
    std::fprintf(stderr, "OK: decode gates hold (rs/rlnc %.2fx at k=%zu, "
                 "fused %.2fx two-pass)\n",
                 gated_ratio, gated_k, elim_ratio);
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "decode_bench: missing path after --json\n");
        return 1;
      }
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "decode_bench: unknown argument %s\n", argv[i]);
      return 1;
    }
  }
  return Run(smoke, json_path);
}
