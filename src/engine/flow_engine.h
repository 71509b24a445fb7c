// FlowEngine: a flow-table recovery engine for base-station scale.
//
// One engine hosts many concurrent recovery flows — the
// millions-of-users regime of the ROADMAP's million-session item —
// instead of one heap object and one blocking loop per exchange:
//
//   * Flow table. Native flow state is POD-ish and lives in a
//     FlowArena slot (engine/arena.h): header, ground-truth source
//     block, and a small per-flow elimination workspace, all in one
//     contiguous run keyed by a 64-bit FlowId through a
//     generation-checked handle. Spawning and retiring flows never
//     touches the heap in steady state.
//
//   * Event-driven scheduling. A binary-heap EventQueue
//     (common/event_queue.h) of (virtual_time, flow) events replaces
//     the per-session while loop; RunUntil harvests every flow due
//     this tick together.
//
//   * Cross-flow GF(256) batching. The batch planner collects the
//     pending repair work of ALL runnable flows per tick. Flows in a
//     tick share one coefficient seed per repair slot (sound: each
//     flow's equation spans only its own source block, and within a
//     flow the slots use distinct seeds), so their source blocks can
//     be gathered symbol-major into staging rows and each slot's
//     encode issued as ONE fused GfAxpyN whose term spans concatenate
//     every participating flow — 1 KiB+ spans even when each flow's
//     deficit is 2-3 symbols, which is where the SIMD kernels earn
//     their keep (see bench/flow_engine_bench.cc).
//
// Native flows model the erasure regime: a destination missing
// `deficit` symbols of an n_source-symbol block, repairs crossing a
// per-record loss channel, decode by small dxd elimination over the
// missing columns (a delivered repair's known columns are substituted
// out against the destination's correct copies — which, in the
// erasure model, equal the source's ground truth — so the banked
// equation projects onto the missing columns only). The per-flow
// solver keeps its pivot rows in the flow's arena slot as fused
// [coefs | data] rows, inserted by the shared fec::GaussJordanInsert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "engine/arena.h"
#include "fec/codec.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"

namespace ppr::engine {

using FlowId = std::uint64_t;

struct EngineConfig {
  // Uniform flow shape: every native flow recovers an n_source-symbol
  // block of symbol_bytes-byte symbols. Capped at 256: a flow's missing
  // columns are kept as 8-bit column ids.
  std::size_t n_source = 16;
  std::size_t symbol_bytes = 64;
  // Deficits are drawn uniformly in [1, max_deficit] per flow; this
  // also sizes the per-flow elimination workspace. Capped at 64.
  std::size_t max_deficit = 3;
  // Per-repair-record delivery loss (the erasure channel).
  double record_loss = 0.2;
  // Virtual time between a flow's feedback rounds.
  std::uint64_t round_interval = 1;
  // Rounds before a native flow is abandoned as failed.
  std::size_t max_rounds = 64;
  std::size_t slots_per_slab = 1024;
  // Mixes per-flow RNG streams; same seed => same engine trajectory.
  std::uint64_t seed = 1;
  // Native-flow repair codec. kRlnc (default): seeded random
  // combinations, batched cross-flow GF(256) encode, dxd elimination.
  // kReedSolomon: max_deficit parity symbols precomputed at spawn
  // (GF(2^16) additive-FFT encode, fec/reed_solomon.h) and stored in
  // the slot — rounds move precomputed bytes only, and decode is the
  // O(K log K) erasure path. Requires even symbol_bytes. The tree's
  // only codec switch (fec/codec.h).
  fec::CodecKind codec = fec::CodecKind::kRlnc;
};

struct EngineStats {
  std::uint64_t flows_spawned = 0;
  std::uint64_t flows_completed = 0;  // decoded and verified against truth
  std::uint64_t flows_failed = 0;     // abandoned at max_rounds
  std::uint64_t rounds = 0;           // native flow-rounds executed
  std::uint64_t repairs_sent = 0;
  std::uint64_t repairs_delivered = 0;
  // Fused encode accounting: one call per (tick, repair slot), spanning
  // every flow in the slot's group.
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_bytes = 0;
};

class FlowEngine {
 public:
  explicit FlowEngine(EngineConfig config);
  ~FlowEngine();

  const EngineConfig& config() const { return config_; }
  std::uint64_t now() const { return now_; }
  std::size_t active_flows() const { return arena_.active(); }
  const EngineStats& stats() const { return stats_; }

  // Creates a native flow (deterministic content and deficit from
  // `id` + config.seed) and schedules its first round one interval
  // out. Returns the arena handle; it goes stale when the flow
  // completes or fails.
  FlowHandle SpawnFlow(FlowId id);
  bool FlowAlive(FlowHandle handle) const { return arena_.Alive(handle); }

  // Processes every event due at or before `until`, one batched tick
  // per distinct due time, and advances now(). Returns events
  // processed.
  std::size_t RunUntil(std::uint64_t until);

  // Drains the queue completely (every flow runs to completion or its
  // round cap). Returns events processed.
  std::size_t RunAll();

 private:
  // Queue payloads are packed FlowHandles (generation in the high
  // half, so a stale handle is detected on pop without a lookup).
  using FlowQueue = EventQueue<std::uint64_t>;

  std::size_t ProcessTick(std::uint64_t tick_time);
  void ProcessNativeBatch();  // consumes batch_items_ (kRlnc)
  void ProcessRsBatch();      // consumes batch_items_ (kReedSolomon)
  void FinishFlow(FlowHandle handle, bool decoded);
  // Solver row i of a native flow's slot: [missing_count coefs |
  // symbol_bytes payload], rows row_stride_ bytes apart.
  std::uint8_t* SolverRow(std::byte* slot, std::size_t i) const {
    return reinterpret_cast<std::uint8_t*>(slot + off_rows_) + i * row_stride_;
  }

  struct BatchItem {
    FlowHandle handle;
    std::uint32_t request = 0;  // repairs this flow still needs
  };

  EngineConfig config_;
  FlowArena arena_;
  FlowQueue queue_;
  EngineStats stats_;
  std::uint64_t now_ = 0;
  std::uint32_t seed_counter_ = 0;  // shared repair-slot seeds
  // Slot layout (bytes from slot start), fixed per engine: the source
  // block, then max_deficit solver rows of max_deficit + symbol_bytes.
  std::size_t off_source_ = 0;
  std::size_t off_rows_ = 0;
  std::size_t row_stride_ = 0;

  // Tick-lifetime scratch, reused across ticks.
  std::vector<FlowQueue::Entry> due_events_;
  std::vector<BatchItem> batch_items_;
  std::vector<std::vector<std::uint8_t>> staging_;  // symbol-major gather
  std::vector<std::uint8_t> repair_dst_;            // fused encode output
  std::vector<std::uint8_t> coef_scratch_;          // shared slot coefs
  std::vector<std::uint8_t> work_row_;              // projected equation
  std::vector<fec::GfTerm> terms_;                  // encode/solve terms
  // kReedSolomon: one engine-lifetime encoder/decoder pair (the flow
  // shape is uniform), Reset() between flows — spawn and finish stay
  // heap-free in steady state.
  std::unique_ptr<fec::ReedSolomonEncoder> rs_encoder_;
  std::unique_ptr<fec::ReedSolomonDecoder> rs_decoder_;
};

}  // namespace ppr::engine
