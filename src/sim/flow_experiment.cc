#include "sim/flow_experiment.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace ppr::sim {

namespace {

void AccumulateStats(engine::EngineStats& into,
                     const engine::EngineStats& from) {
  into.flows_spawned += from.flows_spawned;
  into.flows_completed += from.flows_completed;
  into.flows_failed += from.flows_failed;
  into.rounds += from.rounds;
  into.repairs_sent += from.repairs_sent;
  into.repairs_delivered += from.repairs_delivered;
  into.batch_calls += from.batch_calls;
  into.batch_bytes += from.batch_bytes;
}

}  // namespace

FlowExperimentResult RunFlowEngineExperiment(
    const FlowExperimentConfig& config) {
  if (config.num_shards == 0) {
    throw std::invalid_argument("RunFlowEngineExperiment: zero shards");
  }
  const std::size_t shards = config.num_shards;
  std::vector<engine::EngineStats> shard_stats(shards);
  std::vector<obs::Snapshot> shard_metrics(shards);

  // One shard = one engine = one registry; flow f belongs to shard
  // f % shards. Nothing below depends on the executing thread.
  const auto run_shard = [&](std::size_t shard) {
    obs::MetricRegistry registry;
    obs::ScopedObsContext obs_scope(&registry, /*tracer=*/nullptr,
                                    /*record_timings=*/false);
    engine::EngineConfig engine_config = config.engine;
    engine_config.seed =
        config.seed ^ (0xA24BAED4963EE407ull * (shard + 1));
    engine::FlowEngine eng(engine_config);
    for (std::size_t f = shard; f < config.flows; f += shards) {
      eng.SpawnFlow(static_cast<engine::FlowId>(f));
    }
    eng.RunAll();
    shard_stats[shard] = eng.stats();
    shard_metrics[shard] = registry.TakeSnapshot();
  };

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t num_threads = std::max<std::size_t>(
      1, std::min(shards, config.num_threads ? config.num_threads
                                             : (hw ? hw : 1)));
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t s = next.fetch_add(1); s < shards;
         s = next.fetch_add(1)) {
      run_shard(s);
    }
  };
  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  FlowExperimentResult result;
  result.shards = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    AccumulateStats(result.totals, shard_stats[s]);
    result.metrics.Merge(shard_metrics[s]);
  }
  return result;
}

}  // namespace ppr::sim
