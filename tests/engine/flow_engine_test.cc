#include "engine/flow_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/bitvec.h"
#include "common/crc.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace ppr::engine {
namespace {

EngineConfig SmallConfig(std::uint64_t seed = 1) {
  EngineConfig config;
  config.n_source = 16;
  config.symbol_bytes = 64;
  config.max_deficit = 3;
  config.record_loss = 0.2;
  config.seed = seed;
  return config;
}

bool StatsEqual(const EngineStats& a, const EngineStats& b) {
  return a.flows_spawned == b.flows_spawned &&
         a.flows_completed == b.flows_completed &&
         a.flows_failed == b.flows_failed && a.rounds == b.rounds &&
         a.repairs_sent == b.repairs_sent &&
         a.repairs_delivered == b.repairs_delivered &&
         a.batch_calls == b.batch_calls && a.batch_bytes == b.batch_bytes;
}

// FinishFlow memcmps every recovered symbol against the flow's ground
// truth and throws on divergence, so "RunAll returned and everything
// completed" IS the decode-correctness assertion.
TEST(FlowEngineTest, NativeFlowsDecodeAndRetire) {
  FlowEngine engine(SmallConfig());
  std::vector<FlowHandle> handles;
  for (FlowId f = 0; f < 512; ++f) handles.push_back(engine.SpawnFlow(f));
  EXPECT_EQ(engine.active_flows(), 512u);
  engine.RunAll();
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.flows_spawned, 512u);
  EXPECT_EQ(stats.flows_completed + stats.flows_failed, 512u);
  // Small deficits against 20% record loss and a 64-round cap: a
  // failed flow would mean the solver or planner lost an equation.
  EXPECT_EQ(stats.flows_completed, 512u);
  EXPECT_EQ(engine.active_flows(), 0u);
  // Completion retires the slot: every handle is stale, detectably so.
  for (const FlowHandle h : handles) EXPECT_FALSE(engine.FlowAlive(h));
  EXPECT_GT(stats.repairs_sent, stats.repairs_delivered);  // lossy channel
  EXPECT_GT(stats.rounds, 0u);
}

// CodecKind::kReedSolomon flows precompute parity at spawn and run
// pure-bookkeeping rounds; FinishFlow still memcmps every recovered
// symbol, so completion is the decode-correctness assertion.
TEST(FlowEngineTest, ReedSolomonFlowsDecodeAndRetire) {
  EngineConfig config = SmallConfig(3);
  config.codec = fec::CodecKind::kReedSolomon;
  FlowEngine engine(config);
  for (FlowId f = 0; f < 512; ++f) engine.SpawnFlow(f);
  engine.RunAll();
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.flows_spawned, 512u);
  EXPECT_EQ(stats.flows_completed, 512u);
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_GT(stats.repairs_sent, stats.repairs_delivered);  // lossy channel
}

TEST(FlowEngineTest, ReedSolomonIsDeterministicAndRejectsOddSymbols) {
  const auto run = [](std::uint64_t seed) {
    EngineConfig config = SmallConfig(seed);
    config.codec = fec::CodecKind::kReedSolomon;
    FlowEngine engine(config);
    for (FlowId f = 0; f < 128; ++f) engine.SpawnFlow(f);
    engine.RunAll();
    return engine.stats();
  };
  EXPECT_TRUE(StatsEqual(run(9), run(9)));

  EngineConfig odd = SmallConfig();
  odd.codec = fec::CodecKind::kReedSolomon;
  odd.symbol_bytes = 63;
  EXPECT_THROW(FlowEngine{odd}, std::invalid_argument);
}

// The widest shape the slot layout takes: deficits up to kDeficitCap
// (64) over a 64-symbol block, so the fused solver rows run at full
// width (64 coefficient bytes ahead of the payload) and RS parity fills
// the same region. FinishFlow checks every recovered symbol.
TEST(FlowEngineTest, FullWidthDeficitsDecode) {
  for (const fec::CodecKind codec :
       {fec::CodecKind::kRlnc, fec::CodecKind::kReedSolomon}) {
    EngineConfig config = SmallConfig(5);
    config.codec = codec;
    config.n_source = 64;
    config.max_deficit = 64;
    config.slots_per_slab = 64;
    FlowEngine engine(config);
    for (FlowId f = 0; f < 96; ++f) engine.SpawnFlow(f);
    engine.RunAll();
    EXPECT_EQ(engine.stats().flows_completed, 96u)
        << fec::CodecKindName(codec);
    EXPECT_EQ(engine.active_flows(), 0u);
  }
}

// A flow keeps its missing columns as 8-bit ids, so a block wider than
// 256 symbols is rejected rather than silently never missing columns
// 256 and up.
TEST(FlowEngineTest, RejectsBlocksWiderThan256Symbols) {
  EngineConfig config = SmallConfig();
  config.n_source = 257;
  EXPECT_THROW(FlowEngine{config}, std::invalid_argument);
  config.n_source = 256;
  config.slots_per_slab = 16;
  FlowEngine engine(config);
  for (FlowId f = 0; f < 32; ++f) engine.SpawnFlow(f);
  engine.RunAll();
  EXPECT_EQ(engine.stats().flows_completed, 32u);
}

TEST(FlowEngineTest, TrajectoryIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    FlowEngine engine(SmallConfig(seed));
    for (FlowId f = 0; f < 256; ++f) engine.SpawnFlow(f);
    engine.RunAll();
    return engine.stats();
  };
  const EngineStats a = run(7);
  const EngineStats b = run(7);
  EXPECT_TRUE(StatsEqual(a, b));
  // A different seed draws different deficits/losses: some field moves.
  const EngineStats c = run(8);
  EXPECT_FALSE(StatsEqual(a, c));
}

std::uint32_t StatsCrc(const EngineStats& s) {
  BitVec transcript;
  for (const std::uint64_t v :
       {s.flows_spawned, s.flows_completed, s.flows_failed, s.rounds,
        s.repairs_sent, s.repairs_delivered, s.batch_calls, s.batch_bytes}) {
    transcript.AppendUint(v, 64);
  }
  return Crc32Bits(transcript);
}

// Golden pins for the engine's event loop, one per codec. A second
// wave spawns while the first is mid-flight, so the queue holds flows
// due at different times. The determinism test above compares two runs
// of one build; these constants also catch a trajectory that changes
// from one version to the next.
TEST(FlowEngineTest, GoldenTrajectoriesPerCodec) {
  struct Pinned {
    fec::CodecKind codec;
    std::uint64_t seed;
    std::uint32_t crc;
  };
  const Pinned pinned[] = {
      {fec::CodecKind::kRlnc, 21, 0xFC89B8DFu},
      {fec::CodecKind::kReedSolomon, 22, 0xE980CFE5u},
  };
  for (const Pinned& pin : pinned) {
    EngineConfig config = SmallConfig(pin.seed);
    config.codec = pin.codec;
    config.record_loss = 0.4;
    FlowEngine engine(config);
    for (FlowId f = 0; f < 200; ++f) engine.SpawnFlow(f);
    engine.RunUntil(3);
    for (FlowId f = 200; f < 400; ++f) engine.SpawnFlow(f);
    engine.RunAll();
    const EngineStats& stats = engine.stats();
    EXPECT_EQ(stats.flows_completed + stats.flows_failed, 400u);
    EXPECT_EQ(StatsCrc(stats), pin.crc)
        << fec::CodecKindName(pin.codec) << " got 0x" << std::hex
        << StatsCrc(stats);
  }
}

// The batching claim, asserted structurally: with many flows due per
// tick, the mean fused-encode span must be many flows wide — far above
// the one-symbol span an unbatched per-flow encode would issue.
TEST(FlowEngineTest, BatchPlannerFusesCrossFlowSpans) {
  const EngineConfig config = SmallConfig();
  FlowEngine engine(config);
  for (FlowId f = 0; f < 256; ++f) engine.SpawnFlow(f);
  engine.RunAll();
  const EngineStats& stats = engine.stats();
  ASSERT_GT(stats.batch_calls, 0u);
  const double mean_span =
      static_cast<double>(stats.batch_bytes) / stats.batch_calls;
  EXPECT_GE(mean_span, 4.0 * config.symbol_bytes);
  // One fused call per (tick, repair slot), not one per flow: far
  // fewer calls than repairs put on the air.
  EXPECT_LT(stats.batch_calls, stats.repairs_sent / 4);
}

TEST(FlowEngineTest, RunUntilAdvancesVirtualTimeIncrementally) {
  FlowEngine engine(SmallConfig());
  for (FlowId f = 0; f < 64; ++f) engine.SpawnFlow(f);
  // First tick only: every flow gets exactly one round.
  const std::size_t first = engine.RunUntil(engine.config().round_interval);
  EXPECT_EQ(first, 64u);
  EXPECT_EQ(engine.now(), engine.config().round_interval);
  EXPECT_EQ(engine.stats().rounds, 64u);
  EXPECT_GT(engine.active_flows(), 0u);  // nobody decodes in zero repairs...
  engine.RunAll();
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_completed + engine.stats().flows_failed, 64u);
}

#if !defined(PPR_OBS_OFF)
TEST(FlowEngineTest, ExportsEngineMetrics) {
  obs::MetricRegistry registry;
  obs::ScopedObsContext scope(&registry);
  FlowEngine engine(SmallConfig());
  for (FlowId f = 0; f < 64; ++f) engine.SpawnFlow(f);
  engine.RunAll();
  const obs::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("engine.flows.completed"),
            engine.stats().flows_completed);
  EXPECT_EQ(snap.gauges.at("engine.flows.active"), 0.0);  // all retired
  EXPECT_GT(snap.histograms.at("engine.batch.span_bytes").count, 0u);
  EXPECT_GT(snap.histograms.at("engine.sched.lag").count, 0u);
}
#endif  // !PPR_OBS_OFF

}  // namespace
}  // namespace ppr::engine
