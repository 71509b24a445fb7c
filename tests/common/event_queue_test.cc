#include "common/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace ppr {
namespace {

using Queue = EventQueue<std::uint64_t>;

TEST(EventQueueTest, PopsInTimeOrder) {
  Queue q;
  q.Push(30, 3);
  q.Push(10, 1);
  q.Push(20, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PeekTime(), 10u);
  EXPECT_EQ(q.Pop()->payload, 1u);
  EXPECT_EQ(q.Pop()->payload, 2u);
  EXPECT_EQ(q.Pop()->payload, 3u);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.Empty());
}

// Determinism at any event count hangs on this: same-time events pop
// in push order, never in heap-internal order.
TEST(EventQueueTest, EqualTimesBreakTiesByPushOrder) {
  Queue q;
  for (std::uint64_t k = 0; k < 100; ++k) q.Push(7, k);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto e = q.Pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->payload, k);
  }
}

TEST(EventQueueTest, PopDueLeavesFutureEventsQueued) {
  Queue q;
  q.Push(5, 50);
  q.Push(1, 10);
  q.Push(3, 30);
  q.Push(3, 31);
  q.Push(9, 90);
  std::vector<Queue::Entry> due;
  EXPECT_EQ(q.PopDue(3, due), 3u);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, 10u);
  EXPECT_EQ(due[1].payload, 30u);
  EXPECT_EQ(due[2].payload, 31u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.PeekTime(), 5u);
  // An empty harvest when nothing is due.
  EXPECT_EQ(q.PopDue(4, due), 0u);
  EXPECT_EQ(due.size(), 3u);
}

// Random interleaving against a reference model: the heap agrees with
// a stable sort by (time, insertion order) for any push/pop pattern.
TEST(EventQueueTest, RandomizedAgainstStableSortModel) {
  Rng rng(811);
  Queue q;
  std::vector<Queue::Entry> model;  // kept sorted lazily at drain
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t = rng.UniformInt(50);
    q.Push(t, seq);
    model.push_back(Queue::Entry{t, seq, seq});
    ++seq;
  }
  std::stable_sort(model.begin(), model.end(),
                   [](const Queue::Entry& a, const Queue::Entry& b) {
                     return a.time < b.time;
                   });
  for (const Queue::Entry& want : model) {
    const auto got = q.Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->time, want.time);
    EXPECT_EQ(got->payload, want.payload);
  }
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace ppr
