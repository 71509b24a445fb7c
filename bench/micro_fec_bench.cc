// Microbenchmarks for the src/fec/ coded-repair subsystem: the GF(256)
// axpy kernel (the inner loop of RLNC encode and Gaussian elimination),
// repair-symbol generation, and full decoder runs at varying erasure
// counts. Encoding runs per repair symbol on the sender's hot path, so
// axpy throughput bounds how fast a busy sender can service deficits.
//
// Modes:
//   (default)        Google-Benchmark run; GfAxpy/GfAxpyN sweeps are
//                    registered once per available GF(256) backend.
//   --smoke          every benchmark executes once-ish (CI bit-rot guard).
//   --json <path>    skips Google Benchmark and writes the backend sweep
//                    (GfAxpy MB/s per backend per symbol size, 8 B-8 KiB)
//                    as machine-readable JSON. CI archives the file and
//                    bench/check_regression.py gates the scalar-vs-
//                    dispatch ratio against bench/baseline/bench_fec.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/rlnc.h"

namespace {

using namespace ppr;

// 8 B is the default PP-ARQ FEC symbol (4-bit codewords x 16 per
// symbol) — the sub-vector-width regime must stay on the scoreboard.
constexpr std::size_t kSweepSizes[] = {8, 32, 64, 256, 1024, 4096, 8192};
constexpr std::size_t kAxpyNTerms = 16;

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

void BM_GfAxpy(benchmark::State& state, fec::GfImpl impl) {
  fec::GfImplScope guard(impl);
  if (!guard.ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  Rng rng(601);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  auto dst = RandomBytes(rng, len);
  const auto src = RandomBytes(rng, len);
  std::uint8_t coef = 2;
  for (auto _ : state) {
    fec::GfAxpy(dst, coef, src);
    coef = static_cast<std::uint8_t>(coef == 255 ? 2 : coef + 1);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

// One burst of kAxpyNTerms combinations into a single accumulator, the
// shape of RlncEncoder::MakeRepair and the decoder's elimination sweep.
void BM_GfAxpyN(benchmark::State& state, fec::GfImpl impl) {
  fec::GfImplScope guard(impl);
  if (!guard.ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  Rng rng(606);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  auto dst = RandomBytes(rng, len);
  const auto block = RandomBlock(rng, kAxpyNTerms, len);
  std::vector<fec::GfTerm> terms;
  std::uint8_t coef = 2;
  for (const auto& s : block) terms.push_back({coef++, s});
  for (auto _ : state) {
    fec::GfAxpyN(dst, terms);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len * kAxpyNTerms));
}

void BM_GfAxpyXorFastPath(benchmark::State& state) {
  Rng rng(602);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  auto dst = RandomBytes(rng, len);
  const auto src = RandomBytes(rng, len);
  for (auto _ : state) {
    fec::GfAxpy(dst, 1, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_GfAxpyXorFastPath)->Arg(4096)->Arg(65536);

// One repair symbol over a 250-byte-packet source block (the fig16
// link's shape: 508 codewords -> 64 symbols of 4 bytes at the default
// geometry, or fewer, larger symbols).
void BM_RlncMakeRepair(benchmark::State& state) {
  Rng rng(603);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const fec::RlncEncoder encoder(RandomBlock(rng, n, bytes));
  std::uint32_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.MakeRepair(seed++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * bytes));
}
BENCHMARK(BM_RlncMakeRepair)->Args({64, 4})->Args({64, 32})->Args({128, 32});

// Decoder cost to fill `erasures` missing symbols with repair symbols
// (systematic rows enter first, as in a PP-ARQ session).
void BM_RlncDecode(benchmark::State& state) {
  Rng rng(604);
  const std::size_t n = 64, bytes = 32;
  const std::size_t erasures = static_cast<std::size_t>(state.range(0));
  const auto block = RandomBlock(rng, n, bytes);
  const fec::RlncEncoder encoder(block);
  std::vector<fec::RepairSymbol> repairs;
  for (std::uint32_t s = 1; s <= erasures + 4; ++s) {
    repairs.push_back(encoder.MakeRepair(s));
  }
  for (auto _ : state) {
    fec::RlncDecoder decoder(n, bytes);
    for (std::size_t i = erasures; i < n; ++i) decoder.AddSource(i, block[i]);
    std::size_t r = 0;
    while (!decoder.Complete() && r < repairs.size()) {
      decoder.AddRepair(repairs[r++]);
    }
    benchmark::DoNotOptimize(decoder.rank());
  }
}
BENCHMARK(BM_RlncDecode)->Arg(4)->Arg(16)->Arg(64);

// A relay's repair symbol: masked combination over the ~3/4 of the
// source block it overheard cleanly.
void BM_RlncMaskedRepair(benchmark::State& state) {
  Rng rng(605);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const auto block = RandomBlock(rng, n, bytes);
  std::vector<bool> have(n, true);
  for (std::size_t i = 0; i < n; i += 4) have[i] = false;
  std::uint32_t counter = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fec::MakeMaskedRepair(block, have, fec::PartySeed(1, counter++)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * bytes));
}
BENCHMARK(BM_RlncMaskedRepair)->Args({64, 8})->Args({64, 32});

void RegisterBackendSweeps() {
  for (const fec::GfImpl impl : fec::GfAvailableImpls()) {
    const std::string suffix(fec::GfImplName(impl));
    auto* axpy = benchmark::RegisterBenchmark(("BM_GfAxpy/" + suffix).c_str(),
                                              BM_GfAxpy, impl);
    auto* axpyn = benchmark::RegisterBenchmark(
        ("BM_GfAxpyN/" + suffix).c_str(), BM_GfAxpyN, impl);
    for (const std::size_t len : kSweepSizes) {
      axpy->Arg(static_cast<std::int64_t>(len));
      axpyn->Arg(static_cast<std::int64_t>(len));
    }
  }
}

// ------------------------------------------------------- --json sweep
// Self-timed (steady_clock) rather than Google-Benchmark-driven so the
// emitted schema stays ours: one flat record per (kernel, backend,
// symbol size), consumed by bench/check_regression.py and the README
// performance table.

double MbPerSec(std::size_t bytes_per_rep, double seconds, std::size_t reps) {
  return static_cast<double>(bytes_per_rep) * static_cast<double>(reps) /
         seconds / 1e6;
}

template <typename Fn>
double MeasureMbps(std::size_t bytes_per_rep, Fn&& rep) {
  using Clock = std::chrono::steady_clock;
  // Warm caches and tables, then grow the batch until the timed region
  // is long enough (>= 50 ms) to dwarf clock granularity.
  for (int i = 0; i < 8; ++i) rep();
  std::size_t reps = 64;
  double best = 0.0;
  for (;;) {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) rep();
    const std::chrono::duration<double> elapsed = Clock::now() - begin;
    if (elapsed.count() < 0.05) {
      reps *= 4;
      continue;
    }
    best = std::max(best, MbPerSec(bytes_per_rep, elapsed.count(), reps));
    break;
  }
  // Best of three full batches: the CI regression gate hard-fails on
  // the ratio of two of these numbers, so one noisy-neighbor stall on a
  // shared runner must not masquerade as a kernel regression.
  for (int round = 0; round < 2; ++round) {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) rep();
    const std::chrono::duration<double> elapsed = Clock::now() - begin;
    best = std::max(best, MbPerSec(bytes_per_rep, elapsed.count(), reps));
  }
  return best;
}

int RunJsonSweep(const std::string& path) {
  std::vector<bench::JsonRecord> records;
  for (const fec::GfImpl impl : fec::GfAvailableImpls()) {
    fec::GfImplScope guard(impl);
    const std::string name(fec::GfImplName(impl));
    for (const std::size_t len : kSweepSizes) {
      Rng rng(601);
      auto dst = RandomBytes(rng, len);
      const auto src = RandomBytes(rng, len);
      std::uint8_t coef = 2;
      const double axpy_mbps = MeasureMbps(len, [&] {
        fec::GfAxpy(dst, coef, src);
        coef = static_cast<std::uint8_t>(coef == 255 ? 2 : coef + 1);
      });
      records.push_back({{"kernel", std::string("GfAxpy")},
                         {"impl", name},
                         {"symbol_bytes", static_cast<std::int64_t>(len)},
                         {"mb_per_s", axpy_mbps}});

      const auto block = RandomBlock(rng, kAxpyNTerms, len);
      std::vector<fec::GfTerm> terms;
      std::uint8_t c = 2;
      for (const auto& s : block) terms.push_back({c++, s});
      const double axpyn_mbps = MeasureMbps(
          len * kAxpyNTerms, [&] { fec::GfAxpyN(dst, terms); });
      records.push_back({{"kernel", std::string("GfAxpyN")},
                         {"impl", name},
                         {"symbol_bytes", static_cast<std::int64_t>(len)},
                         {"terms", static_cast<std::int64_t>(kAxpyNTerms)},
                         {"mb_per_s", axpyn_mbps}});
      std::fprintf(stderr, "%-6s %5zu B  GfAxpy %9.1f MB/s  GfAxpyN %9.1f MB/s\n",
                   name.c_str(), len, axpy_mbps, axpyn_mbps);
    }
  }
  // `impls` names every backend this host can dispatch, so the
  // regression checker can tell "benchmark dropped" (a coverage
  // regression) from "backend unavailable on this runner" (a committed
  // baseline measured on wider hardware, e.g. GFNI records checked
  // against a pre-GFNI CI machine).
  std::string impls;
  for (const fec::GfImpl impl : fec::GfAvailableImpls()) {
    if (!impls.empty()) impls += ",";
    impls += std::string(fec::GfImplName(impl));
  }
  const bench::JsonRecord header = {
      {"bench", std::string("micro_fec_bench")},
      {"active_impl", std::string(fec::GfImplName(fec::GfActiveImpl()))},
      {"impls", impls}};
  if (!bench::WriteJsonReport(path, header, "results", records)) return 1;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

// Custom main: `--smoke` shrinks every benchmark to once-ish execution
// (CI bit-rot guard); `--json <path>` runs the self-timed backend sweep
// instead of Google Benchmark.
int main(int argc, char** argv) {
  static char min_time[] = "--benchmark_min_time=0.001";
  std::vector<char*> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      args.push_back(min_time);
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "micro_fec_bench: missing path after --json\n");
        return 1;
      }
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return RunJsonSweep(json_path);
  RegisterBackendSweeps();
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
