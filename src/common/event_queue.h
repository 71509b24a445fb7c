// Virtual-time event queue shared by the repository's event loops
// (engine/flow_engine.h, stream/session.h).
//
// A binary min-heap of (time, seq, payload) entries; `seq` is a
// queue-wide monotone push counter, so same-time events pop in push
// order and a loop's whole schedule is deterministic however many
// events share a time. Payloads move in and out; the heap never copies
// one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace ppr {

template <typename T>
class EventQueue {
 public:
  struct Entry {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;  // push order: the tie-break at equal times
    T payload{};
  };

  bool Empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Earliest scheduled time; requires !Empty().
  std::uint64_t PeekTime() const { return heap_.front().time; }

  void Push(std::uint64_t time, T payload) {
    heap_.push_back(Entry{time, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  // Pops the earliest entry (ties broken by push order), or nullopt
  // when the queue is empty.
  std::optional<Entry> Pop() {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry out = std::move(heap_.back());
    heap_.pop_back();
    return out;
  }

  // Pops every entry with time <= `until` into `out` (appended in
  // (time, seq) order). Returns how many were popped.
  std::size_t PopDue(std::uint64_t until, std::vector<Entry>& out) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().time <= until) {
      out.push_back(std::move(*Pop()));
      ++n;
    }
    return n;
  }

 private:
  // Heap order: std::*_heap keep the "largest" entry at the front, so
  // "larger" means later.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ppr
