#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ppr {

void ParallelFor(std::size_t count, std::size_t num_threads,
                 const std::function<void(std::size_t)>& job) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(count, num_threads ? num_threads : (hw ? hw : 1)));
  std::atomic<std::size_t> next{0};
  // Indices are claimed in increasing order, so every job below the
  // lowest failing one has run, whichever worker failed first.
  std::mutex failure_mutex;
  std::size_t failed_index = count;
  std::exception_ptr failure;
  const auto worker = [&] {
    std::size_t j = next.fetch_add(1);
    try {
      for (; j < count; j = next.fetch_add(1)) job(j);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (j < failed_index) {
        failed_index = j;
        failure = std::current_exception();
      }
    }
  };
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace ppr
