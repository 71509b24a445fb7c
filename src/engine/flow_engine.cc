#include "engine/flow_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/rng.h"
#include "fec/gauss_jordan.h"
#include "fec/gf256.h"
#include "fec/rlnc.h"
#include "obs/obs.h"

namespace ppr::engine {
namespace {

// Widest per-flow deficit the slot layout reserves solver rows for.
constexpr std::size_t kDeficitCap = 64;
// Widest flow block: NativeHeader::missing holds 8-bit column ids.
constexpr std::size_t kMaxSource = 256;

std::uint64_t PackHandle(FlowHandle handle) {
  return (static_cast<std::uint64_t>(handle.generation) << 32) | handle.index;
}

FlowHandle UnpackHandle(std::uint64_t key) {
  return FlowHandle{static_cast<std::uint32_t>(key & 0xFFFFFFFFu),
                    static_cast<std::uint32_t>(key >> 32)};
}

constexpr std::size_t AlignUp(std::size_t x, std::size_t a) {
  return (x + a - 1) / a * a;
}

// The POD-ish per-flow state at the start of every arena slot. The
// source block and the solver rows follow at engine-computed offsets.
struct NativeHeader {
  FlowId id;
  Rng rng;  // per-flow stream: content, deficit, channel draws
  std::uint16_t missing_count;
  std::uint16_t rank;
  std::uint16_t rounds_done;
  std::uint8_t missing[kDeficitCap];     // ascending missing column ids
  std::uint8_t pivot_live[kDeficitCap];  // solver row i holds pivot i
};

const EngineConfig& Validated(const EngineConfig& config) {
  if (config.n_source == 0 || config.symbol_bytes == 0) {
    throw std::invalid_argument("FlowEngine: empty flow shape");
  }
  if (config.n_source > kMaxSource) {
    throw std::invalid_argument("FlowEngine: n_source above 256");
  }
  if (config.max_deficit == 0 || config.max_deficit > kDeficitCap ||
      config.max_deficit > config.n_source) {
    throw std::invalid_argument("FlowEngine: bad max_deficit");
  }
  if (config.round_interval == 0) {
    throw std::invalid_argument("FlowEngine: zero round_interval");
  }
  if (config.codec == fec::CodecKind::kReedSolomon) {
    if (config.symbol_bytes % 2 != 0) {
      throw std::invalid_argument(
          "FlowEngine: kReedSolomon needs even symbol_bytes");
    }
    fec::RsBlockSize(config.n_source, config.max_deficit);  // shape limits
  }
  return config;
}

std::size_t SlotBytes(const EngineConfig& config) {
  const std::size_t source = config.n_source * config.symbol_bytes;
  const std::size_t solver =
      config.max_deficit * (config.max_deficit + config.symbol_bytes);
  return AlignUp(AlignUp(sizeof(NativeHeader), 64) + source + solver, 64);
}

}  // namespace

FlowEngine::FlowEngine(EngineConfig config)
    : config_(Validated(config)),
      arena_(SlotBytes(config_), config_.slots_per_slab) {
  off_source_ = AlignUp(sizeof(NativeHeader), 64);
  off_rows_ = off_source_ + config_.n_source * config_.symbol_bytes;
  row_stride_ = config_.max_deficit + config_.symbol_bytes;
  staging_.resize(config_.n_source);
  if (config_.codec == fec::CodecKind::kReedSolomon) {
    // Uniform flow shape: one encoder/decoder pair serves every flow
    // via Reset(). Parity rows reuse the solver region of the slot
    // (off_rows_): m * symbol_bytes fits in the m solver rows, the
    // delivered bitmap lives in header.pivot_live, the banked count in
    // header.rank.
    rs_encoder_ = std::make_unique<fec::ReedSolomonEncoder>(
        config_.n_source, config_.max_deficit, config_.symbol_bytes);
    rs_decoder_ = std::make_unique<fec::ReedSolomonDecoder>(
        config_.n_source, config_.max_deficit, config_.symbol_bytes);
  }
}

FlowEngine::~FlowEngine() = default;

FlowHandle FlowEngine::SpawnFlow(FlowId id) {
  const FlowHandle handle = arena_.Allocate();
  std::byte* slot = arena_.Get(handle);
  auto* header = new (slot) NativeHeader{
      id,
      Rng(config_.seed ^ (id * 0x9E3779B97F4A7C15ull) ^ 0xD1B54A32D192ED03ull),
      0,
      0,
      0,
      {},
      {}};

  // Ground-truth source block, straight from the flow's stream.
  auto* source = reinterpret_cast<std::uint8_t*>(slot + off_source_);
  const std::size_t block_bytes = config_.n_source * config_.symbol_bytes;
  std::size_t filled = 0;
  while (filled < block_bytes) {
    const std::uint64_t word = header->rng.Next();
    const std::size_t n = std::min(sizeof(word), block_bytes - filled);
    std::memcpy(source + filled, &word, n);
    filled += n;
  }

  // The deficit: which columns the destination is missing.
  const std::size_t deficit =
      1 + static_cast<std::size_t>(header->rng.UniformInt(config_.max_deficit));
  header->missing_count = static_cast<std::uint16_t>(deficit);
  for (std::size_t i = 0; i < deficit; ++i) {
    while (true) {
      const auto candidate = static_cast<std::uint8_t>(
          header->rng.UniformInt(config_.n_source));
      bool taken = false;
      for (std::size_t k = 0; k < i; ++k) {
        if (header->missing[k] == candidate) taken = true;
      }
      if (!taken) {
        header->missing[i] = candidate;
        break;
      }
    }
  }
  std::sort(header->missing, header->missing + deficit);

  if (config_.codec == fec::CodecKind::kReedSolomon) {
    // Precompute every parity symbol now: rounds then move bytes only.
    rs_encoder_->Reset();
    for (std::size_t i = 0; i < config_.n_source; ++i) {
      rs_encoder_->SetSource(
          i, std::span(source + i * config_.symbol_bytes,
                       config_.symbol_bytes));
    }
    rs_encoder_->Finish();
    auto* parity = reinterpret_cast<std::uint8_t*>(slot + off_rows_);
    for (std::size_t j = 0; j < config_.max_deficit; ++j) {
      const auto p = rs_encoder_->Parity(j);
      std::memcpy(parity + j * config_.symbol_bytes, p.data(), p.size());
    }
  }

  ++stats_.flows_spawned;
  queue_.Push(now_ + config_.round_interval, PackHandle(handle));
  return handle;
}

std::size_t FlowEngine::ProcessTick(std::uint64_t tick_time) {
  now_ = std::max(now_, tick_time);
  due_events_.clear();
  queue_.PopDue(tick_time, due_events_);
  batch_items_.clear();
  for (const FlowQueue::Entry& event : due_events_) {
    obs::Observe("engine.sched.lag", now_ - event.time);
    const FlowHandle handle = UnpackHandle(event.payload);
    if (!arena_.Alive(handle)) continue;  // retired while queued
    auto* header = reinterpret_cast<NativeHeader*>(arena_.Get(handle));
    batch_items_.push_back(
        {handle, static_cast<std::uint32_t>(header->missing_count -
                                            header->rank)});
  }
  if (!batch_items_.empty()) {
    if (config_.codec == fec::CodecKind::kReedSolomon) {
      ProcessRsBatch();
    } else {
      ProcessNativeBatch();
    }
  }
  obs::SetGauge("engine.flows.active",
                static_cast<double>(arena_.active()));
  return due_events_.size();
}

// One engine tick: every due native flow's repair round, with the
// GF(256) encode fused across flows.
//
// Flows are ordered by remaining request, descending, so "the flows
// still needing a repair at slot s" is always a PREFIX of the order.
// The source blocks are gathered once, symbol-major, into staging
// rows (staging_[j] = flow0's symbol j ++ flow1's symbol j ++ ...);
// repair slot s then shares ONE coefficient seed across its whole
// group — sound because each flow's equation spans only its own block,
// and a flow's distinct slots use distinct seeds — which turns the
// slot's encode into a single GfAxpyN whose term j spans
// group_size * symbol_bytes contiguous bytes. That is the long-run
// shape the SIMD kernels want, reached even at 2-3 symbol deficits.
void FlowEngine::ProcessNativeBatch() {
  const std::size_t n = config_.n_source;
  const std::size_t sb = config_.symbol_bytes;
  std::stable_sort(batch_items_.begin(), batch_items_.end(),
                   [](const BatchItem& a, const BatchItem& b) {
                     return a.request > b.request;
                   });
  const std::size_t flows = batch_items_.size();
  const std::size_t max_request = batch_items_.front().request;

  // Gather: amortized over every repair slot of the tick.
  for (std::size_t j = 0; j < n; ++j) staging_[j].resize(flows * sb);
  for (std::size_t p = 0; p < flows; ++p) {
    const std::byte* slot = arena_.Get(batch_items_[p].handle);
    const auto* source =
        reinterpret_cast<const std::uint8_t*>(slot + off_source_);
    for (std::size_t j = 0; j < n; ++j) {
      std::memcpy(staging_[j].data() + p * sb, source + j * sb, sb);
    }
  }

  coef_scratch_.resize(n);
  std::size_t group = flows;
  for (std::size_t s = 0; s < max_request; ++s) {
    // Shrink the group to flows still requesting more than s repairs.
    while (group > 0 && batch_items_[group - 1].request <= s) --group;
    if (group == 0) break;
    const std::size_t span_bytes = group * sb;

    const std::uint32_t seed = fec::PartySeed(0, ++seed_counter_);
    fec::RepairCoefficientsInto(seed, coef_scratch_);
    repair_dst_.assign(span_bytes, 0);
    terms_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (coef_scratch_[j] == 0) continue;
      terms_.push_back(
          {coef_scratch_[j], std::span(staging_[j].data(), span_bytes)});
    }
    fec::GfAxpyN(repair_dst_, terms_);
    ++stats_.batch_calls;
    stats_.batch_bytes += span_bytes;
    stats_.repairs_sent += group;
    obs::Observe("engine.batch.span_bytes", span_bytes);

    // Delivery and ingest, per flow. The repair crosses the erasure
    // channel whole; a delivered record's known columns are
    // substituted out against the destination's copies — equal to the
    // source's ground truth under the erasure model — so the banked
    // equation is exactly the repair projected onto the flow's missing
    // columns: rho = sum over missing m of coef[m] * source[m], the
    // d-term algebraic identity of "received data minus knowns". It is
    // built straight into the fused work row [d coefs | rho] and
    // inserted into the flow's basis.
    for (std::size_t p = 0; p < group; ++p) {
      std::byte* slot = arena_.Get(batch_items_[p].handle);
      auto* header = reinterpret_cast<NativeHeader*>(slot);
      const std::size_t d = header->missing_count;
      if (header->rank == d) continue;  // completed earlier this tick
      if (header->rng.Bernoulli(config_.record_loss)) continue;  // erased
      ++stats_.repairs_delivered;

      const auto* source =
          reinterpret_cast<const std::uint8_t*>(slot + off_source_);
      work_row_.assign(d + sb, 0);
      terms_.clear();
      for (std::size_t i = 0; i < d; ++i) {
        const std::uint8_t m = header->missing[i];
        work_row_[i] = coef_scratch_[m];
        if (work_row_[i] == 0) continue;
        terms_.push_back({work_row_[i], std::span(source + m * sb, sb)});
      }
      fec::GfAxpyN(std::span(work_row_).subspan(d), terms_);
      const std::size_t lead = fec::GaussJordanInsert(
          work_row_, d,
          [&](std::size_t j) {
            return header->pivot_live[j] ? SolverRow(slot, j) : nullptr;
          },
          terms_);
      if (lead == d) continue;  // linearly dependent
      std::memcpy(SolverRow(slot, lead), work_row_.data(), work_row_.size());
      header->pivot_live[lead] = 1;
      ++header->rank;
    }
  }

  // Round bookkeeping: completion, failure, or the next wake-up.
  for (const BatchItem& item : batch_items_) {
    std::byte* slot = arena_.Get(item.handle);
    auto* header = reinterpret_cast<NativeHeader*>(slot);
    ++header->rounds_done;
    ++stats_.rounds;
    if (header->rank == header->missing_count) {
      FinishFlow(item.handle, /*decoded=*/true);
    } else if (header->rounds_done >= config_.max_rounds) {
      FinishFlow(item.handle, /*decoded=*/false);
    } else {
      queue_.Push(now_ + config_.round_interval, PackHandle(item.handle));
    }
  }
}

// One engine tick under kReedSolomon. Parity was precomputed at spawn,
// so a round is pure bookkeeping: each flow offers its lowest
// undelivered parity indices (one per still-needed symbol), each
// record crosses the erasure channel, and a delivered index is banked
// by flipping its pivot_live bit — no GF arithmetic until the single
// O(K log K) decode at completion. Any d distinct parities complete a
// deficit-d flow (MDS), and resending a lost index is always
// productive, so the needed set is just "the first d undelivered".
void FlowEngine::ProcessRsBatch() {
  const std::size_t m = config_.max_deficit;
  for (const BatchItem& item : batch_items_) {
    std::byte* slot = arena_.Get(item.handle);
    auto* header = reinterpret_cast<NativeHeader*>(slot);
    const std::size_t d = header->missing_count;
    std::size_t needed = d - header->rank;
    for (std::size_t j = 0; j < m && needed > 0; ++j) {
      if (header->pivot_live[j]) continue;
      --needed;
      ++stats_.repairs_sent;
      if (header->rng.Bernoulli(config_.record_loss)) continue;  // erased
      ++stats_.repairs_delivered;
      header->pivot_live[j] = 1;
      ++header->rank;
    }
    ++header->rounds_done;
    ++stats_.rounds;
    if (header->rank == d) {
      FinishFlow(item.handle, /*decoded=*/true);
    } else if (header->rounds_done >= config_.max_rounds) {
      FinishFlow(item.handle, /*decoded=*/false);
    } else {
      queue_.Push(now_ + config_.round_interval, PackHandle(item.handle));
    }
  }
}

void FlowEngine::FinishFlow(FlowHandle handle, bool decoded) {
  std::byte* slot = arena_.Get(handle);
  auto* header = reinterpret_cast<NativeHeader*>(slot);
  if (decoded) {
    // The recovered columns must reproduce the ground truth exactly;
    // anything else is an engine bug, not a channel outcome.
    const auto* source =
        reinterpret_cast<const std::uint8_t*>(slot + off_source_);
    const std::size_t sb = config_.symbol_bytes;
    if (config_.codec == fec::CodecKind::kReedSolomon) {
      // The one GF(2^16) decode of the flow's lifetime: surviving
      // columns plus the banked parity indices in, the erased columns
      // out.
      rs_decoder_->Reset();
      const std::uint8_t* missing = header->missing;
      const std::uint8_t* missing_end = missing + header->missing_count;
      for (std::size_t i = 0; i < config_.n_source; ++i) {
        if (missing != missing_end && *missing == i) {
          ++missing;
          continue;
        }
        rs_decoder_->AddSourceSpan(i, std::span(source + i * sb, sb));
      }
      const auto* parity =
          reinterpret_cast<const std::uint8_t*>(slot + off_rows_);
      for (std::size_t j = 0; j < config_.max_deficit; ++j) {
        if (!header->pivot_live[j]) continue;
        rs_decoder_->AddParitySpan(j, std::span(parity + j * sb, sb));
      }
      rs_decoder_->Decode();
      for (std::size_t i = 0; i < header->missing_count; ++i) {
        const auto recovered = rs_decoder_->Symbol(header->missing[i]);
        if (std::memcmp(recovered.data(), source + header->missing[i] * sb,
                        sb) != 0) {
          throw std::logic_error("FlowEngine: recovered symbol mismatch");
        }
      }
    } else {
      // Full rank: every solver row is the unit vector e_i, so its
      // payload IS missing symbol i.
      const std::size_t d = header->missing_count;
      for (std::size_t i = 0; i < d; ++i) {
        assert(header->pivot_live[i]);
        if (std::memcmp(SolverRow(slot, i) + d,
                        source + header->missing[i] * sb, sb) != 0) {
          throw std::logic_error("FlowEngine: recovered symbol mismatch");
        }
      }
    }
    ++stats_.flows_completed;
    obs::Count("engine.flows.completed");
  } else {
    ++stats_.flows_failed;
    obs::Count("engine.flows.failed");
  }
  arena_.Retire(handle);
}

std::size_t FlowEngine::RunUntil(std::uint64_t until) {
  std::size_t processed = 0;
  while (!queue_.Empty() && queue_.PeekTime() <= until) {
    processed += ProcessTick(queue_.PeekTime());
  }
  now_ = std::max(now_, until);
  return processed;
}

std::size_t FlowEngine::RunAll() {
  std::size_t processed = 0;
  while (!queue_.Empty()) {
    processed += ProcessTick(queue_.PeekTime());
  }
  return processed;
}

}  // namespace ppr::engine
