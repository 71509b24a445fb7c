// The one worker loop of the simulation sweeps.
#pragma once

#include <cstddef>
#include <functional>

namespace ppr {

// Runs job(0) .. job(count - 1) on min(count, num_threads) workers
// (num_threads 0 = hardware concurrency), each pulling the next
// unclaimed index; one worker runs on the calling thread alone. A job
// must write only its own result slot, so a caller that merges the
// slots in index order gets the same result at every thread count.
// When jobs throw, the one with the lowest index rethrows here, as a
// serial loop would; a worker whose job threw claims no more jobs.
void ParallelFor(std::size_t count, std::size_t num_threads,
                 const std::function<void(std::size_t)>& job);

}  // namespace ppr
